//! The three workloads and their seed-derived schedules.

use quokka::common::rng::DetRng;
use quokka::{EngineConfig, FailureSpec, TransportConfig};

/// Workers in the simulated cluster.
pub const WORKERS: u32 = 4;

/// TPC-H scale factor of the generated data.
pub const SCALE_FACTOR: f64 = 0.01;

/// Query progress at which `recovery` kills a worker (the paper's §V-D
/// experiment: a worker dies halfway through the query).
pub const KILL_AT: f64 = 0.5;

/// Stream id separating the kill schedule from the per-round query orders
/// that share the seed.
const KILL_STREAM: u64 = 0x6b69_6c6c;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Q1, Q6, Q12, Q14, Q19: every query reads `lineitem`, so loading and
    /// decoding base-table splits carries the load (in-process transport).
    Scan,
    /// Q2, Q11, Q13, Q16, Q22: no `lineitem`, many small tasks, GCS commits
    /// and `batch::wire` frames over loopback TCP.
    Join,
    /// Q3, Q9, Q18 with one worker killed at 50% progress per query: the
    /// only workload that reads backups and replays lineage.
    Recovery,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Scan, Workload::Join, Workload::Recovery];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Scan => "scan",
            Workload::Join => "join",
            Workload::Recovery => "recovery",
        }
    }

    /// The TPC-H query numbers one round runs, each once.
    pub fn queries(self) -> &'static [usize] {
        match self {
            Workload::Scan => &[1, 6, 12, 14, 19],
            Workload::Join => &[2, 11, 13, 16, 22],
            Workload::Recovery => &[3, 9, 18],
        }
    }

    /// The session's engine configuration (no failures injected).
    pub fn config(self) -> EngineConfig {
        let transport = match self {
            Workload::Join => TransportConfig::tcp(),
            Workload::Scan | Workload::Recovery => TransportConfig::inproc(),
        };
        EngineConfig::quokka(WORKERS).with_transport(transport)
    }
}

/// Everything a seed decides besides the data: the query order of each
/// round and, for `recovery`, which worker dies in each query. Each client
/// process of a run (`part`) follows its own schedule.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub workload: Workload,
    pub seed: u64,
    pub part: u64,
}

impl Schedule {
    /// Round `round`'s query order: a seeded shuffle of the workload's
    /// queries.
    pub fn round_order(&self, round: u64) -> Vec<usize> {
        let mut order = self.workload.queries().to_vec();
        let mut rng = DetRng::derive(self.seed, self.stream(round));
        for i in (1..order.len()).rev() {
            order.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        order
    }

    /// The failure injected into the `index`-th query of the run (counting
    /// from 0 across rounds), if any.
    pub fn kill(&self, index: u64) -> Option<FailureSpec> {
        (self.workload == Workload::Recovery).then(|| {
            let mut rng = DetRng::derive(self.seed ^ KILL_STREAM, self.stream(index));
            let worker = rng.next_below(WORKERS as u64);
            FailureSpec::new(worker as u32, KILL_AT)
        })
    }

    fn stream(&self, index: u64) -> u64 {
        (self.part << 32) | index
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_a_function_of_the_seed() {
        let a = Schedule { workload: Workload::Recovery, seed: 42, part: 1 };
        let b = Schedule { workload: Workload::Recovery, seed: 42, part: 1 };
        for i in 0..50 {
            assert_eq!(a.round_order(i), b.round_order(i));
            assert_eq!(a.kill(i), b.kill(i));
        }
        for other in [
            Schedule { workload: Workload::Recovery, seed: 43, part: 1 },
            Schedule { workload: Workload::Recovery, seed: 42, part: 2 },
        ] {
            assert!((0..50).any(|i| a.round_order(i) != other.round_order(i)));
            assert!((0..50).any(|i| a.kill(i) != other.kill(i)));
        }
    }

    #[test]
    fn rounds_are_permutations_and_kills_cover_the_cluster() {
        let s = Schedule { workload: Workload::Scan, seed: 7, part: 0 };
        for round in 0..20 {
            let mut order = s.round_order(round);
            order.sort_unstable();
            assert_eq!(order, Workload::Scan.queries());
        }
        assert!((0..20).map(|r| s.round_order(r)).any(|o| o != s.round_order(0)));
        assert_eq!(s.kill(0), None);

        let r = Schedule { workload: Workload::Recovery, seed: 7, part: 0 };
        let mut workers: Vec<u32> = (0..200).map(|i| r.kill(i).unwrap().worker).collect();
        assert!((0..200).all(|i| r.kill(i).unwrap().at_progress == KILL_AT));
        workers.sort_unstable();
        workers.dedup();
        assert_eq!(workers, (0..WORKERS).collect::<Vec<_>>());
    }

    #[test]
    fn workloads_parse_by_name_and_use_their_transport() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
        assert_eq!(Workload::Join.config().transport.kind, quokka::TransportKind::Tcp);
        assert_eq!(Workload::Scan.config().transport.kind, quokka::TransportKind::Inproc);
        assert!(Workload::Recovery.config().failures.is_empty());
    }
}
