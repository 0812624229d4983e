//! Per-bank access and residency counters.
//!
//! Bank-level parallelism is the second half of the paper's bank-select
//! policy (Eq 4): affinity wants everything in one bank, throughput wants the
//! load spread. These counters are what both the timing model (service-time
//! bound) and the Fig 14 occupancy plots read.

use aff_sim_core::trace::Event;

/// Access/residency counters for every L3 bank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankCounters {
    accesses: Vec<u64>,
    atomics: Vec<u64>,
    resident_bytes: Vec<u64>,
}

impl BankCounters {
    /// Counters for `num_banks` banks, all zero.
    pub fn new(num_banks: u32) -> Self {
        let n = num_banks as usize;
        Self {
            accesses: vec![0; n],
            atomics: vec![0; n],
            resident_bytes: vec![0; n],
        }
    }

    /// Number of banks tracked.
    pub fn num_banks(&self) -> u32 {
        self.accesses.len() as u32
    }

    /// Record `n` plain accesses to `bank`.
    pub fn access(&mut self, bank: u32, n: u64) {
        self.accesses[bank as usize] += n;
    }

    /// Record `n` atomic operations (CAS / fetch-add) at `bank`. Atomics also
    /// count as accesses.
    pub fn atomic(&mut self, bank: u32, n: u64) {
        self.atomics[bank as usize] += n;
        self.accesses[bank as usize] += n;
    }

    /// Declare `bytes` of data resident in `bank` (for the capacity model).
    pub fn add_resident(&mut self, bank: u32, bytes: u64) {
        self.resident_bytes[bank as usize] += bytes;
    }

    /// Move every resident byte from one bank to another (a dying bank
    /// evacuating to its spare) and return how many bytes moved. A
    /// self-transfer — the degenerate all-banks-dead spare map — is a no-op
    /// that still reports the bank's residency.
    pub fn evacuate_resident(&mut self, from: u32, to: u32) -> u64 {
        let bytes = self.resident_bytes[from as usize];
        if from != to {
            self.resident_bytes[from as usize] = 0;
            self.resident_bytes[to as usize] += bytes;
        }
        bytes
    }

    /// Accesses to one bank.
    pub fn accesses_of(&self, bank: u32) -> u64 {
        self.accesses[bank as usize]
    }

    /// Atomics at one bank.
    pub fn atomics_of(&self, bank: u32) -> u64 {
        self.atomics[bank as usize]
    }

    /// Resident bytes declared for one bank.
    pub fn resident_of(&self, bank: u32) -> u64 {
        self.resident_bytes[bank as usize]
    }

    /// Total accesses over all banks.
    pub fn total_accesses(&self) -> u64 {
        self.accesses.iter().sum()
    }

    /// Accesses at the busiest bank — the service-time bottleneck.
    pub fn max_accesses(&self) -> u64 {
        self.accesses.iter().copied().max().unwrap_or(0)
    }

    /// Total bytes declared resident.
    pub fn total_resident(&self) -> u64 {
        self.resident_bytes.iter().sum()
    }

    /// Per-bank resident-bytes slice.
    pub fn resident_per_bank(&self) -> &[u64] {
        &self.resident_bytes
    }

    /// Load imbalance: busiest bank's accesses over the mean (1.0 = perfect).
    /// Returns 0 for an idle system.
    pub fn access_imbalance(&self) -> f64 {
        let total = self.total_accesses();
        if total == 0 {
            return 0.0;
        }
        let mean = total as f64 / self.accesses.len() as f64;
        self.max_accesses() as f64 / mean
    }

    /// Apply one recorded [`Event`] to the counters.
    ///
    /// This is the bank half of the unified event choke point: the same
    /// [`Event`] stream a [`Recorder`](aff_sim_core::trace::Recorder) sees
    /// can be replayed into a fresh `BankCounters` and must reproduce the
    /// engine's accounting exactly. Non-bank events are ignored.
    pub fn apply(&mut self, ev: &Event) {
        match *ev {
            Event::BankAccess { bank, count, .. } => self.access(bank, count),
            Event::BankAtomic { bank, count, .. } => self.atomic(bank, count),
            Event::BankResident { bank, bytes } => self.add_resident(bank, bytes),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate() {
        let mut c = BankCounters::new(4);
        c.access(0, 10);
        c.atomic(0, 5);
        c.access(3, 2);
        assert_eq!(c.accesses_of(0), 15);
        assert_eq!(c.atomics_of(0), 5);
        assert_eq!(c.total_accesses(), 17);
        assert_eq!(c.max_accesses(), 15);
    }

    #[test]
    fn residency_tracking() {
        let mut c = BankCounters::new(2);
        c.add_resident(1, 4096);
        c.add_resident(1, 4096);
        assert_eq!(c.resident_of(1), 8192);
        assert_eq!(c.total_resident(), 8192);
    }

    #[test]
    fn evacuate_moves_residency_once() {
        let mut c = BankCounters::new(4);
        c.add_resident(2, 1024);
        c.add_resident(3, 8);
        assert_eq!(c.evacuate_resident(2, 3), 1024);
        assert_eq!(c.resident_of(2), 0);
        assert_eq!(c.resident_of(3), 1032);
        // Second evacuation finds nothing; self-transfer keeps the bytes.
        assert_eq!(c.evacuate_resident(2, 3), 0);
        assert_eq!(c.evacuate_resident(3, 3), 1032);
        assert_eq!(c.resident_of(3), 1032);
    }

    #[test]
    fn imbalance_metric() {
        let mut c = BankCounters::new(4);
        assert_eq!(c.access_imbalance(), 0.0);
        for b in 0..4 {
            c.access(b, 10);
        }
        assert!((c.access_imbalance() - 1.0).abs() < 1e-12);
        c.access(0, 30);
        assert!(c.access_imbalance() > 2.0);
    }

    #[test]
    fn apply_replays_event_stream() {
        let mut direct = BankCounters::new(4);
        direct.access(1, 7);
        direct.atomic(2, 3);
        direct.add_resident(1, 512);

        let events = [
            Event::BankAccess {
                bank: 1,
                count: 7,
                fetch: false,
            },
            Event::BankAtomic {
                bank: 2,
                count: 3,
                hops: 5,
            },
            Event::BankResident {
                bank: 1,
                bytes: 512,
            },
            Event::CoreOps { count: 99 }, // ignored: not a bank event
        ];
        let mut replayed = BankCounters::new(4);
        for ev in &events {
            replayed.apply(ev);
        }
        assert_eq!(replayed, direct);
    }
}
