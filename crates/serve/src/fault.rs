//! Deterministic fault injection for the worker pool.
//!
//! A [`FaultPlan`] maps job sequence numbers (the pool's admission
//! order, starting at 0) to injected faults: a **panic** inside the
//! job (exercising the `catch_unwind` isolation and poisoned-mutex
//! recovery) or a **stall** (the worker sleeps before executing,
//! exercising backpressure and the busy-shedding path). Plans are pure
//! data — given the same plan and the same admission order, the same
//! jobs fault — and can be written explicitly (`panic:3,stall:5:20`)
//! or derived from a seed ([`FaultPlan::seeded`]) for randomized but
//! reproducible campaigns.
//!
//! Faults the plan cannot express — corrupt `.ltr` bytes, malformed
//! request lines, connection floods — are injected by the *client*
//! side of the failure-injection tests instead; the server's job is
//! only to survive them.

use lams_mpsoc::SplitMix64;

/// One injected fault, bound to a job sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic inside the job with sequence number `.0`.
    Panic(u64),
    /// Sleep `millis` before executing job `seq`.
    Stall {
        /// Target job sequence number.
        seq: u64,
        /// Stall duration in milliseconds.
        millis: u64,
    },
}

/// A deterministic set of injected faults (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan: no faults, production behaviour.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Parses a comma-separated spec: `panic:SEQ` and `stall:SEQ:MS`
    /// items, e.g. `panic:3,stall:5:20`, and `seed:SEED:JOBS` for the
    /// faults of [`FaultPlan::seeded`]. Returns `None` on malformed
    /// specs — a typo must not silently run a fault-free campaign.
    pub fn parse(spec: &str) -> Option<Self> {
        let mut faults = Vec::new();
        for item in spec.split(',').filter(|s| !s.is_empty()) {
            let mut parts = item.split(':');
            match parts.next()? {
                "panic" => {
                    faults.push(Fault::Panic(parts.next()?.parse().ok()?));
                }
                "stall" => {
                    let seq = parts.next()?.parse().ok()?;
                    let millis = parts.next()?.parse().ok()?;
                    faults.push(Fault::Stall { seq, millis });
                }
                "seed" => {
                    let seed = parts.next()?.parse().ok()?;
                    let jobs = parts.next()?.parse().ok()?;
                    faults.extend(FaultPlan::seeded(seed, jobs).faults);
                }
                _ => return None,
            }
            if parts.next().is_some() {
                return None;
            }
        }
        Some(FaultPlan { faults })
    }

    /// A reproducible pseudo-random plan over jobs `0..jobs`: roughly
    /// one job in eight panics and one in eight stalls briefly (1–8
    /// ms), chosen by a fixed splitmix64 stream of `seed`. The same
    /// seed always yields the same plan.
    pub fn seeded(seed: u64, jobs: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut faults = Vec::new();
        for seq in 0..jobs {
            match rng.next_u64() % 16 {
                0 | 1 => faults.push(Fault::Panic(seq)),
                2 | 3 => faults.push(Fault::Stall {
                    seq,
                    millis: 1 + rng.next_u64() % 8,
                }),
                _ => {}
            }
        }
        FaultPlan { faults }
    }

    /// Whether any fault is configured.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The configured faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Whether job `seq` must panic.
    pub fn panics_at(&self, seq: u64) -> bool {
        self.faults.contains(&Fault::Panic(seq))
    }

    /// The stall (milliseconds) injected before job `seq`, if any.
    pub fn stall_ms(&self, seq: u64) -> Option<u64> {
        self.faults.iter().find_map(|f| match *f {
            Fault::Stall { seq: s, millis } if s == seq => Some(millis),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_the_spec_grammar() {
        let plan = FaultPlan::parse("panic:3,stall:5:20,panic:0").unwrap();
        assert!(plan.panics_at(3));
        assert!(plan.panics_at(0));
        assert!(!plan.panics_at(5));
        assert_eq!(plan.stall_ms(5), Some(20));
        assert_eq!(plan.stall_ms(3), None);
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::none());
        assert_eq!(
            FaultPlan::parse("seed:42:64"),
            Some(FaultPlan::seeded(42, 64))
        );
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "panic",
            "panic:x",
            "stall:1",
            "stall:1:2:3",
            "crash:1",
            "panic:1:9",
            "seed:1",
            "seed:1:x",
            "seed:1:16:2",
        ] {
            assert_eq!(FaultPlan::parse(bad), None, "{bad}");
        }
    }

    #[test]
    fn seeded_plans_are_reproducible_and_seed_sensitive() {
        let a = FaultPlan::seeded(42, 64);
        let b = FaultPlan::seeded(42, 64);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "64 jobs at 1/8 rates should fault somewhere");
        let c = FaultPlan::seeded(43, 64);
        assert_ne!(a, c, "different seeds should differ");
        // A prefix of the same stream: same faults for the shared jobs.
        let short = FaultPlan::seeded(42, 16);
        for f in short.faults() {
            assert!(a.faults().contains(f));
        }
    }

    #[test]
    fn seeded_plan_stream_is_pinned() {
        let stall = |seq, millis| Fault::Stall { seq, millis };
        let want = [
            stall(1, 3),
            stall(3, 7),
            stall(13, 6),
            Fault::Panic(16),
            Fault::Panic(20),
            Fault::Panic(21),
            Fault::Panic(22),
            stall(26, 6),
            stall(31, 2),
            Fault::Panic(32),
            Fault::Panic(33),
            stall(35, 2),
            Fault::Panic(37),
            stall(38, 3),
            Fault::Panic(43),
            Fault::Panic(49),
            Fault::Panic(51),
            stall(58, 5),
        ];
        assert_eq!(FaultPlan::seeded(42, 64).faults(), want);
    }
}
