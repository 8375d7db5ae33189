//! The end of an attempt, shared by both distributed backends: the
//! real error over peer-failure echoes, superstep agreement, the
//! `bsp.*` and `net.*` counters, and the assembly of the ranks'
//! results.

use bsml_eval::persist::decode_value;
use bsml_eval::{ByteReader, CodecError, EvalError, Value};
use bsml_obs::Telemetry;

use crate::distributed::DistOutcome;
use crate::machine::add_run_counters;
use crate::wire::{CtlLedger, CtlStats};

/// Flushes one attempt's fault, transport and checkpoint counters into
/// the `bsp.*` / `net.*` telemetry counters — shared by the in-process
/// backend (from its own [`FaultLedger`]) and the multi-process parent
/// (from the [`CtlLedger`]s its rank processes shipped home), so both
/// backends account identically.
pub(crate) fn flush_counters(
    telemetry: &Telemetry,
    counters: &CtlLedger,
    checkpoints_written: u64,
    checkpoint_bytes: u64,
) {
    if counters.faults_injected > 0 {
        telemetry.counter_add("bsp.faults_injected", counters.faults_injected);
    }
    if counters.barrier_timeouts > 0 {
        telemetry.counter_add("bsp.barrier_timeouts", counters.barrier_timeouts);
    }
    if checkpoints_written > 0 {
        telemetry.counter_add("bsp.checkpoints_written", checkpoints_written);
    }
    if checkpoint_bytes > 0 {
        telemetry.counter_add("bsp.checkpoint_bytes", checkpoint_bytes);
    }
    if counters.frames_sent > 0 {
        telemetry.counter_add("net.frames_sent", counters.frames_sent);
    }
    if counters.corrupt_frames > 0 {
        telemetry.counter_add("net.corrupt_frames", counters.corrupt_frames);
    }
}

/// One rank's end of an attempt: its result encoded with
/// [`encode_value`], its communication totals and the fuel it used.
pub(crate) type RankResult = Result<(Vec<u8>, CtlStats, u64), EvalError>;

/// Turns the per-rank results of one attempt into its outcome, for
/// both backends: a real error beats the [`EvalError::PeerFailure`]
/// echoes of released peers, every rank must have seen the same
/// number of supersteps, the `bsp.*` counters are charged, and the
/// results are assembled.
pub(crate) fn finish_attempt(
    telemetry: &Telemetry,
    results: Vec<RankResult>,
    resumed_from: Option<u64>,
) -> Result<DistOutcome, EvalError> {
    let mut oks = Vec::with_capacity(results.len());
    let mut peer_failure = false;
    for result in results {
        match result {
            Ok(ok) => oks.push(ok),
            Err(EvalError::PeerFailure) => peer_failure = true,
            Err(real) => return Err(real),
        }
    }
    if peer_failure {
        return Err(EvalError::PeerFailure);
    }
    let stats = oks[0].1;
    assert!(
        oks.iter().all(|(_, s, _)| s.supersteps == stats.supersteps),
        "ranks disagree on superstep count — SPMD replication broken"
    );
    let total_words_sent = oks.iter().map(|(_, s, _)| s.sent_words).sum();
    if telemetry.is_enabled() {
        // SPMD replication: barrier counts are identical on every
        // rank (asserted above), so charge them once, not p times —
        // matching the lockstep machine's accounting.
        add_run_counters(
            telemetry,
            stats.supersteps,
            stats.puts,
            stats.ifats,
            total_words_sent,
        );
    }
    let encodings: Vec<&[u8]> = oks.iter().map(|(v, _, _)| v.as_slice()).collect();
    Ok(DistOutcome {
        value: assemble(&encodings)?,
        supersteps: stats.supersteps,
        total_words_sent,
        work: oks.iter().map(|(_, _, w)| *w).collect(),
        resumed_from,
    })
}

/// Decodes a buffer that holds exactly one encoded value.
pub(crate) fn decode_exact(bytes: &[u8]) -> Result<Value, CodecError> {
    let mut r = ByteReader::new(bytes);
    let v = decode_value(&mut r)?;
    r.finish()?;
    Ok(v)
}

/// Reassembles per-rank results: width-1 vectors become one `p`-wide
/// vector; a replicated value passes when every rank's encoding of it
/// is the same, byte for byte.
fn assemble(per_rank: &[&[u8]]) -> Result<Value, EvalError> {
    let mut values = per_rank
        .iter()
        .map(|bytes| decode_exact(bytes))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|err| {
            EvalError::ScrutineeMismatch("distributed result", format!("undecodable result: {err}"))
        })?;
    let components: Option<Vec<Value>> = values
        .iter()
        .map(|v| match v {
            Value::Vector(c) if c.len() == 1 => Some(c[0].clone()),
            _ => None,
        })
        .collect();
    if let Some(components) = components {
        Ok(Value::vector(components))
    } else if per_rank.iter().all(|bytes| *bytes == per_rank[0]) {
        Ok(values.swap_remove(0))
    } else {
        Err(EvalError::ScrutineeMismatch(
            "distributed result",
            "ranks disagree on a replicated value".to_string(),
        ))
    }
}
