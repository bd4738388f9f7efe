//! Member identity and the outcome codec.
//!
//! A sweep member is identified by the fingerprint of its captured trace
//! ([`dvi_program::CapturedTrace::fingerprint`]) and of its machine
//! configuration ([`config_fingerprint`]); its [`MemberOutcome`] is
//! serialized by [`write_outcome`] and read back by [`read_outcome`]. The
//! result store ([`crate::store`]) and the sweep service's wire format
//! both use this one codec, so a stored
//! outcome and a shipped one can never disagree about what an outcome
//! looks like. Every field round-trips exactly: resume and memoization
//! are asserted bit-identical with `==` over the whole [`SimStats`].

use crate::batch::MemberOutcome;
use crate::cache::CacheStats;
use crate::combining::PredictorStats;
use crate::config::SimConfig;
use crate::hierarchy::HierarchyStats;
use crate::stats::{DeadlockReport, ProgressStage, SimStats};
use dvi_core::DviStats;
use dvi_program::artifact::{xxh64, ByteReader, ByteWriter};
use dvi_program::ArtifactError;

/// Identity of a member configuration, via the configuration's complete
/// `Debug` rendering: any field change — including future fields —
/// changes the fingerprint, so a stored outcome is never served to a
/// different machine.
#[must_use]
pub fn config_fingerprint(config: &SimConfig) -> u64 {
    xxh64(format!("{config:?}").as_bytes(), 0)
}

/// Serializes a member outcome (tag byte + payload) into a section
/// payload.
pub fn write_outcome(w: &mut ByteWriter, outcome: &MemberOutcome) {
    match outcome {
        MemberOutcome::Ok(stats) => {
            w.put_u8(0);
            write_stats(w, stats);
        }
        MemberOutcome::Degraded { stats, reason } => {
            w.put_u8(1);
            write_stats(w, stats);
            write_string(w, reason);
        }
        MemberOutcome::Deadlocked { partial, .. } => {
            // The report is embedded in `partial.deadlock`; storing it
            // once keeps the two from ever disagreeing on disk.
            w.put_u8(2);
            write_stats(w, partial);
        }
        MemberOutcome::Panicked { payload } => {
            w.put_u8(3);
            write_string(w, payload);
        }
    }
}

/// Reads an outcome written by [`write_outcome`].
///
/// # Errors
///
/// [`ArtifactError::TruncatedArtifact`] when the payload ends early and
/// [`ArtifactError::Malformed`] on an unknown outcome tag or an internally
/// inconsistent payload.
pub fn read_outcome(r: &mut ByteReader<'_>) -> Result<MemberOutcome, ArtifactError> {
    match r.u8()? {
        0 => Ok(MemberOutcome::Ok(read_stats(r)?)),
        1 => {
            let stats = read_stats(r)?;
            let reason = read_string(r)?;
            Ok(MemberOutcome::Degraded { stats, reason })
        }
        2 => {
            let partial = read_stats(r)?;
            let report = partial.deadlock.ok_or_else(|| ArtifactError::Malformed {
                context: "deadlocked outcome without a deadlock report".into(),
            })?;
            Ok(MemberOutcome::Deadlocked { partial, report })
        }
        3 => Ok(MemberOutcome::Panicked { payload: read_string(r)? }),
        tag => Err(ArtifactError::Malformed { context: format!("member outcome tag {tag}") }),
    }
}

fn write_string(w: &mut ByteWriter, s: &str) {
    w.put_str(s);
}

fn read_string(r: &mut ByteReader<'_>) -> Result<String, ArtifactError> {
    r.str()
}

/// Serializes a complete [`SimStats`] field by field (fixed-width
/// little-endian, no padding). Every field must round-trip exactly.
fn write_stats(w: &mut ByteWriter, s: &SimStats) {
    w.put_u64(s.cycles);
    w.put_u64(s.program_instrs);
    w.put_u64(s.committed_entries);
    w.put_u64(s.fetched_instrs);
    w.put_u64(s.fetched_kills);
    w.put_u64(s.mem_refs);
    w.put_u64(s.rename_stalls_no_reg);
    w.put_u64(s.rename_stalls_no_window);
    w.put_u64(s.dvi.saves_seen);
    w.put_u64(s.dvi.restores_seen);
    w.put_u64(s.dvi.saves_eliminated);
    w.put_u64(s.dvi.restores_eliminated);
    w.put_u64(s.dvi.edvi_instructions);
    w.put_u64(s.dvi.edvi_regs_killed);
    w.put_u64(s.dvi.idvi_regs_killed);
    w.put_u64(s.dvi.phys_regs_reclaimed_early);
    w.put_u64(s.branch.direction_predictions);
    w.put_u64(s.branch.direction_mispredictions);
    w.put_u64(s.branch.return_predictions);
    w.put_u64(s.branch.return_mispredictions);
    write_cache_stats(w, s.memory.l1i);
    write_cache_stats(w, s.memory.l1d);
    write_cache_stats(w, s.memory.l2);
    w.put_u64(s.peak_phys_regs_used as u64);
    w.put_bool(s.deadlocked);
    match &s.deadlock {
        None => w.put_u8(0),
        Some(report) => {
            w.put_u8(1);
            w.put_u64(report.stall_cycle);
            w.put_u64(report.detected_cycle);
            w.put_u64(report.window_occupancy as u64);
            match report.head_seq {
                None => w.put_u8(0),
                Some(seq) => {
                    w.put_u8(1);
                    w.put_u64(seq);
                }
            }
            w.put_u8(match report.last_stage {
                ProgressStage::Commit => 0,
                ProgressStage::Fetch => 1,
            });
        }
    }
}

/// Reads statistics written by [`write_stats`].
fn read_stats(r: &mut ByteReader<'_>) -> Result<SimStats, ArtifactError> {
    let mut s = SimStats {
        cycles: r.u64()?,
        program_instrs: r.u64()?,
        committed_entries: r.u64()?,
        fetched_instrs: r.u64()?,
        fetched_kills: r.u64()?,
        mem_refs: r.u64()?,
        rename_stalls_no_reg: r.u64()?,
        rename_stalls_no_window: r.u64()?,
        ..SimStats::default()
    };
    s.dvi = DviStats {
        saves_seen: r.u64()?,
        restores_seen: r.u64()?,
        saves_eliminated: r.u64()?,
        restores_eliminated: r.u64()?,
        edvi_instructions: r.u64()?,
        edvi_regs_killed: r.u64()?,
        idvi_regs_killed: r.u64()?,
        phys_regs_reclaimed_early: r.u64()?,
    };
    s.branch = PredictorStats {
        direction_predictions: r.u64()?,
        direction_mispredictions: r.u64()?,
        return_predictions: r.u64()?,
        return_mispredictions: r.u64()?,
    };
    s.memory = HierarchyStats {
        l1i: read_cache_stats(r)?,
        l1d: read_cache_stats(r)?,
        l2: read_cache_stats(r)?,
    };
    s.peak_phys_regs_used = r.count()?;
    s.deadlocked = r.bool()?;
    s.deadlock = match r.u8()? {
        0 => None,
        1 => {
            let stall_cycle = r.u64()?;
            let detected_cycle = r.u64()?;
            let window_occupancy = r.count()?;
            let head_seq = match r.u8()? {
                0 => None,
                1 => Some(r.u64()?),
                tag => {
                    return Err(ArtifactError::Malformed { context: format!("head_seq tag {tag}") })
                }
            };
            let last_stage = match r.u8()? {
                0 => ProgressStage::Commit,
                1 => ProgressStage::Fetch,
                tag => {
                    return Err(ArtifactError::Malformed {
                        context: format!("progress stage tag {tag}"),
                    })
                }
            };
            Some(DeadlockReport {
                stall_cycle,
                detected_cycle,
                window_occupancy,
                head_seq,
                last_stage,
            })
        }
        tag => {
            return Err(ArtifactError::Malformed { context: format!("deadlock report tag {tag}") })
        }
    };
    Ok(s)
}

fn write_cache_stats(w: &mut ByteWriter, c: CacheStats) {
    w.put_u64(c.accesses);
    w.put_u64(c.misses);
}

fn read_cache_stats(r: &mut ByteReader<'_>) -> Result<CacheStats, ArtifactError> {
    Ok(CacheStats { accesses: r.u64()?, misses: r.u64()? })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats(seed: u64) -> SimStats {
        let mut s = SimStats {
            cycles: seed.wrapping_mul(977) + 3,
            program_instrs: seed + 17,
            committed_entries: seed + 11,
            fetched_instrs: seed + 23,
            mem_refs: seed + 5,
            ..SimStats::default()
        };
        s.dvi.saves_eliminated = seed;
        s.branch.direction_predictions = seed * 2;
        s.memory.l1d = CacheStats { accesses: seed + 100, misses: seed / 2 };
        s.peak_phys_regs_used = (seed as usize % 64) + 32;
        s
    }

    /// One outcome of each kind, the deadlocked one with a full report.
    fn every_outcome_kind() -> Vec<MemberOutcome> {
        let mut deadlocked = sample_stats(7);
        deadlocked.deadlocked = true;
        deadlocked.deadlock = Some(DeadlockReport {
            stall_cycle: 120,
            detected_cycle: 100_121,
            window_occupancy: 5,
            head_seq: Some(99),
            last_stage: ProgressStage::Fetch,
        });
        let report = deadlocked.deadlock.expect("just set");
        vec![
            MemberOutcome::Ok(sample_stats(1)),
            MemberOutcome::Degraded {
                stats: sample_stats(2),
                reason: "injected fault: member 1 at record 4096".into(),
            },
            MemberOutcome::Deadlocked { partial: deadlocked, report },
            MemberOutcome::Panicked { payload: "worker died".into() },
        ]
    }

    fn encoded(outcome: &MemberOutcome) -> Vec<u8> {
        let mut w = ByteWriter::new();
        write_outcome(&mut w, outcome);
        w.into_bytes()
    }

    #[test]
    fn checkpoint_roundtrips_every_outcome_kind() {
        for outcome in every_outcome_kind() {
            let bytes = encoded(&outcome);
            let mut r = ByteReader::new(&bytes, "outcome");
            assert_eq!(read_outcome(&mut r).expect("roundtrip parses"), outcome);
            r.finish().expect("no trailing bytes");
        }
    }

    /// A payload cut anywhere short is an error, never a misparse.
    #[test]
    fn corrupted_checkpoint_is_rejected() {
        for outcome in every_outcome_kind() {
            let bytes = encoded(&outcome);
            for len in 0..bytes.len() {
                let mut r = ByteReader::new(&bytes[..len], "outcome");
                assert!(
                    read_outcome(&mut r).and_then(|_| r.finish()).is_err(),
                    "{outcome} cut at {len} decoded"
                );
            }
        }
    }

    #[test]
    fn config_fingerprint_tracks_config_changes() {
        let base = SimConfig::micro97();
        assert_eq!(config_fingerprint(&base), config_fingerprint(&SimConfig::micro97()));
        assert_ne!(config_fingerprint(&base), config_fingerprint(&base.clone().with_phys_regs(48)));
    }

    /// The result store keys outcomes by [`config_fingerprint`],
    /// so a configuration field the fingerprint does not cover would let
    /// two *different* machines share one cache entry — silently wrong
    /// statistics. The fingerprint hashes the complete `Debug` rendering,
    /// which covers a field exactly when that rendering names it. This
    /// test pins both halves of that argument:
    ///
    /// * the exhaustive destructure (no `..`) fails to **compile** when a
    ///   field is added to [`SimConfig`], forcing this list — and with it
    ///   the coverage check below — to be extended;
    /// * the rendering check fails when a hand-written `Debug`
    ///   implementation ever replaces the derive and drops a field.
    #[test]
    fn config_fingerprint_covers_every_simconfig_field() {
        let config = SimConfig::micro97();
        let SimConfig {
            fetch_width: _,
            decode_width: _,
            issue_width: _,
            commit_width: _,
            window_size: _,
            fetch_queue: _,
            phys_regs: _,
            int_alu_units: _,
            int_mul_units: _,
            cache_ports: _,
            mispredict_penalty: _,
            icache: _,
            dcache: _,
            l2: _,
            memory_latency: _,
            predictor: _,
            dvi: _,
        } = config.clone();
        let rendered = format!("{config:?}");
        for field in [
            "fetch_width",
            "decode_width",
            "issue_width",
            "commit_width",
            "window_size",
            "fetch_queue",
            "phys_regs",
            "int_alu_units",
            "int_mul_units",
            "cache_ports",
            "mispredict_penalty",
            "icache",
            "dcache",
            "l2",
            "memory_latency",
            "predictor",
            "dvi",
        ] {
            assert!(
                rendered.contains(field),
                "the fingerprint's Debug rendering does not cover `{field}` — \
                 extend the fingerprint before trusting the result store"
            );
        }
    }

    #[test]
    fn outcome_serialization_is_reusable_outside_checkpoints() {
        // The result store calls the outcome serializer directly; lock the
        // standalone round trip.
        let outcome = MemberOutcome::Ok(sample_stats(31));
        let mut w = ByteWriter::new();
        write_outcome(&mut w, &outcome);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "standalone outcome");
        assert_eq!(read_outcome(&mut r).expect("roundtrips"), outcome);
        r.finish().expect("no trailing bytes");
    }
}
