//! Content-addressed cell store: the one on-disk format behind both
//! `figures --journal` (crash-safe resume) and `figures --memo` (cross-run
//! cell cache).
//!
//! A store is a 16-byte header — the `AFFCELL3` magic and the build's
//! [`code_salt`] — followed by self-delimiting records:
//!
//! ```text
//! [u32 len][u64 FNV-1a of payload][payload = u64 key ‖ encoded CellEntry]
//! ```
//!
//! Each record is appended and fsync'd, so a process killed at any instant
//! (mid-write included) leaves a file whose intact prefix is trusted and
//! whose torn tail is detected and truncated away on the next open. The key
//! is the content hash the sweep derives from everything a cell's bytes
//! depend on (salt, config hash, seed, chaos, figure, cell index, label), so
//! a lookup can only find an outcome computed from the same inputs by the
//! same code.
//!
//! The payload codec is hand-rolled little-endian (the build environment has
//! no crates.io access for a real serializer): strings are length-prefixed
//! UTF-8 and `f64`s travel as `to_bits`, so values — including NaNs from
//! failed baseline cells — round-trip bit-exactly.
//!
//! Corruption policy, enforced by the tests here and in
//! `tests/run_to_completion.rs`:
//!
//! * truncated record (torn write) → prefix kept, tail dropped;
//! * bit flip anywhere in a record → checksum mismatch → that record and
//!   everything after it dropped (a flipped *length* makes the framing
//!   untrustworthy, so scanning past a bad record is not attempted);
//! * duplicate keys (a crash between write and the in-memory mark, or a
//!   re-run of a failed cell) → the **last** intact record wins;
//! * another magic (an older format) or another salt (another build) → the
//!   whole file is refused and recreated empty.

use std::collections::BTreeMap;
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

use crate::report::Row;
use crate::sweep::CellData;
use aff_nsc::engine::{CycleBreakdown, Metrics};
use aff_nsc::occupancy::{OccupancySnapshot, OccupancyTimeline};
use aff_sim_core::energy::EnergyBreakdown;
use aff_sim_core::fault::{DegradationReport, FaultChange, FaultEvent, LinkRef};
use aff_workloads::graphs::{Direction, IterStat};
use aff_workloads::suite::SuiteRun;

/// File magic: identifies the format *and* its version. Bump the trailing
/// digit on any payload-layout change so old stores are refused, not
/// misparsed.
const MAGIC: &[u8; 8] = b"AFFCELL3";

/// Header length: magic + code salt.
const HEADER_LEN: usize = 16;

/// Record framing: length prefix + checksum.
const FRAME_LEN: usize = 12;

/// Upper bound on one record's payload — far above any real cell outcome,
/// low enough that a corrupt length prefix cannot trigger a huge allocation.
const MAX_RECORD_LEN: usize = 64 << 20;

/// FNV-1a over `bytes` (record checksums, cell keys, RNG stream ids).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The code-version salt stamped in every store header and folded into
/// every cell key: FNV-1a over the bench crate version and the hash
/// `build.rs` takes of the workspace crates' and vendored stand-ins' sources
/// and of `Cargo.lock`. Any source or lockfile change yields a new salt, so
/// outcomes computed by other code are never replayed.
pub fn code_salt() -> u64 {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(env!("CARGO_PKG_VERSION").as_bytes());
    bytes.extend_from_slice(env!("AFF_BENCH_SOURCE_HASH").as_bytes());
    fnv1a(&bytes)
}

/// One stored cell outcome.
#[derive(Debug, Clone)]
pub struct CellEntry {
    /// Figure the cell belongs to.
    pub figure: String,
    /// Cell index within its plan (declaration order).
    pub cell_idx: u64,
    /// Cell label.
    pub label: String,
    /// Wall time of the cell's run, nanoseconds.
    pub wall_ns: u64,
    /// The outcome: cell data, or the cell-level error message.
    pub result: Result<CellData, String>,
}

/// An open store: the key → entry map read from the intact prefix, the
/// scheduling hints read along the way, and the append handle.
#[derive(Debug)]
pub struct CellStore {
    entries: BTreeMap<u64, CellEntry>,
    /// Last stored wall time per `(figure, cell_idx)`. Read from any intact
    /// prefix with the right magic, whatever its salt: hints only order the
    /// work-stealing seed and never change output bytes.
    pub wall_hints: BTreeMap<(String, u64), u64>,
    /// Whether the file held a store of another build or format, discarded.
    pub stale: bool,
    file: std::fs::File,
}

impl CellStore {
    /// Open the store at `path` under `salt`, creating it when missing.
    ///
    /// With `keep`, an intact store of the same salt is reopened: its
    /// entries are loaded and a torn or corrupt tail is truncated away.
    /// Without `keep`, or when the header names another magic or salt, the
    /// file restarts empty. I/O errors are returned; a missing or unreadable
    /// file without `keep` only costs the wall hints.
    pub fn open(path: &Path, salt: u64, keep: bool) -> std::io::Result<CellStore> {
        let buf = match std::fs::read(path) {
            Ok(buf) => buf,
            Err(e) if keep && e.kind() != std::io::ErrorKind::NotFound => return Err(e),
            Err(_) => Vec::new(),
        };
        let scan = scan(&buf, salt);
        let reuse = keep && scan.salt_matches;
        let mut file = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(!reuse)
            .open(path)?;
        if reuse {
            file.set_len(scan.valid_len as u64)?;
            file.seek(SeekFrom::End(0))?;
        } else {
            file.write_all(MAGIC)?;
            file.write_all(&salt.to_le_bytes())?;
            file.sync_data()?;
        }
        Ok(CellStore {
            entries: if reuse { scan.entries } else { BTreeMap::new() },
            wall_hints: scan.wall_hints,
            stale: keep && !buf.is_empty() && !scan.salt_matches,
            file,
        })
    }

    /// The stored entry for `key`, if any.
    pub fn get(&self, key: u64) -> Option<&CellEntry> {
        self.entries.get(&key)
    }

    /// Append `entry` under `key` as one record and fsync it durable.
    pub fn append(&mut self, key: u64, entry: &CellEntry) -> std::io::Result<()> {
        self.file.write_all(&record(key, entry))?;
        self.file.sync_data()
    }
}

/// Frame `entry` under `key` as one store record.
fn record(key: u64, entry: &CellEntry) -> Vec<u8> {
    let mut payload = Vec::with_capacity(256);
    put_u64(&mut payload, key);
    put_entry(&mut payload, entry);
    let mut rec = Vec::with_capacity(FRAME_LEN + payload.len());
    put_u32(&mut rec, payload.len() as u32);
    put_u64(&mut rec, fnv1a(&payload));
    rec.extend_from_slice(&payload);
    rec
}

/// What one pass over a store file found.
struct Scan {
    entries: BTreeMap<u64, CellEntry>,
    wall_hints: BTreeMap<(String, u64), u64>,
    /// Byte length of the trusted prefix (header + intact records).
    valid_len: usize,
    /// The header carries this format's magic and the expected salt.
    salt_matches: bool,
}

/// The single record-scan loop: trust exactly the intact prefix of `buf`.
fn scan(buf: &[u8], salt: u64) -> Scan {
    let mut out = Scan {
        entries: BTreeMap::new(),
        wall_hints: BTreeMap::new(),
        valid_len: HEADER_LEN,
        salt_matches: false,
    };
    if buf.len() < HEADER_LEN || &buf[..8] != MAGIC {
        return out;
    }
    out.salt_matches = buf[8..16] == salt.to_le_bytes();
    let mut pos = HEADER_LEN;
    while let Some(head) = buf.get(pos..pos + FRAME_LEN) {
        let mut d = Dec { buf: head, pos: 0 };
        let (Some(len), Some(sum)) = (d.u32(), d.u64()) else {
            break;
        };
        let len = len as usize;
        if !(8..=MAX_RECORD_LEN).contains(&len) {
            break; // corrupt length prefix
        }
        let Some(payload) = buf.get(pos + FRAME_LEN..pos + FRAME_LEN + len) else {
            break; // torn tail
        };
        if fnv1a(payload) != sum {
            break; // bit flip (in the payload, or in the length itself)
        }
        let mut d = Dec {
            buf: payload,
            pos: 0,
        };
        let (Some(key), Some(entry)) = (d.u64(), d.entry()) else {
            break; // checksum ok but undecodable: format drift, stop trusting
        };
        out.wall_hints
            .insert((entry.figure.clone(), entry.cell_idx), entry.wall_ns);
        out.entries.insert(key, entry);
        pos += FRAME_LEN + len;
    }
    out.valid_len = pos;
    out
}

// ---------- payload codec ----------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// `f64` as raw bits: bit-exact round-trip, NaN payloads included.
fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_metrics(out: &mut Vec<u8>, m: &Metrics) {
    put_u64(out, m.cycles);
    for v in [
        m.breakdown.core_compute,
        m.breakdown.se_compute,
        m.breakdown.bank_service,
        m.breakdown.link,
        m.breakdown.dram,
        m.breakdown.chain,
    ] {
        put_u64(out, v);
    }
    for v in m.hop_flits {
        put_u64(out, v);
    }
    put_u64(out, m.total_hop_flits);
    put_f64(out, m.noc_utilization);
    put_f64(out, m.l3_miss_rate);
    put_u64(out, m.dram_accesses);
    for v in [
        m.energy.noc_hop_flits,
        m.energy.l3_accesses,
        m.energy.private_accesses,
        m.energy.dram_accesses,
        m.energy.core_ops,
        m.energy.se_ops,
        m.energy.cycles,
    ] {
        put_u64(out, v);
    }
    put_f64(out, m.energy_pj);
    put_f64(out, m.bank_imbalance);
    let snaps = m.occupancy.snapshots();
    put_u32(out, snaps.len() as u32);
    for s in snaps {
        put_u32(out, s.per_bank.len() as u32);
        for &v in &s.per_bank {
            put_f64(out, v);
        }
        put_f64(out, s.weight);
    }
    for v in [
        m.degradation.rerouted_messages,
        m.degradation.detour_hops,
        m.degradation.limped_messages,
        m.degradation.remapped_banks,
        m.degradation.remapped_bytes,
        m.degradation.masked_capacity_bytes,
        m.degradation.incore_fallback_streams,
        m.degradation.rerouted_migrations,
        m.degradation.excluded_banks,
        m.degradation.fallback_allocations,
        m.degradation.fault_epochs,
        m.degradation.evacuated_lines,
    ] {
        put_u64(out, v);
    }
    put_u32(out, m.transitions.len() as u32);
    for t in &m.transitions {
        put_fault_event(out, t);
    }
    put_f64(out, m.fragmentation_ratio);
    match &m.hint_source {
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
        None => out.push(0),
    }
    put_u64(out, m.inferred_hints);
    put_u32(out, m.tenants.len() as u32);
    for t in &m.tenants {
        put_u32(out, t.tenant);
        put_str(out, &t.name);
        for v in [
            t.admitted,
            t.quota_rejects,
            t.shed,
            t.retries,
            t.backoff_ticks,
            t.resident_bytes,
            t.evacuated_lines,
            t.migrated_bytes,
        ] {
            put_u64(out, v);
        }
    }
}

fn put_link(out: &mut Vec<u8>, l: &LinkRef) {
    for v in [l.fx, l.fy, l.tx, l.ty] {
        put_u32(out, v);
    }
}

fn put_fault_event(out: &mut Vec<u8>, e: &FaultEvent) {
    put_u64(out, e.cycle);
    match e.change {
        FaultChange::BankFail(b) => {
            out.push(0);
            put_u32(out, b);
        }
        FaultChange::BankRepair(b) => {
            out.push(1);
            put_u32(out, b);
        }
        FaultChange::BankSlow { bank, multiplier } => {
            out.push(2);
            put_u32(out, bank);
            put_u32(out, multiplier);
        }
        FaultChange::LinkFail(l) => {
            out.push(3);
            put_link(out, &l);
        }
        FaultChange::LinkRepair(l) => {
            out.push(4);
            put_link(out, &l);
        }
        FaultChange::LinkDegrade { link, multiplier } => {
            out.push(5);
            put_link(out, &link);
            put_u32(out, multiplier);
        }
    }
}

fn put_cell_data(out: &mut Vec<u8>, data: &CellData) {
    match data {
        CellData::Metrics(m) => {
            out.push(1);
            put_metrics(out, m);
        }
        CellData::Run(r) => {
            out.push(2);
            put_metrics(out, &r.metrics);
            put_u32(out, r.iters.len() as u32);
            for it in &r.iters {
                out.push(match it.dir {
                    Direction::Push => 0,
                    Direction::Pull => 1,
                });
                put_u64(out, it.active);
                put_u64(out, it.visited);
                put_u64(out, it.scout_edges);
                put_u64(out, it.examined_edges);
            }
        }
        CellData::Rows { rows, sim_cycles } => {
            out.push(3);
            put_u64(out, *sim_cycles);
            put_u32(out, rows.len() as u32);
            for row in rows {
                put_str(out, &row.label);
                put_u32(out, row.values.len() as u32);
                for &v in &row.values {
                    put_f64(out, v);
                }
            }
        }
    }
}

fn put_entry(out: &mut Vec<u8>, e: &CellEntry) {
    put_str(out, &e.figure);
    put_u64(out, e.cell_idx);
    put_str(out, &e.label);
    put_u64(out, e.wall_ns);
    match &e.result {
        Ok(data) => put_cell_data(out, data),
        Err(msg) => {
            out.push(0);
            put_str(out, msg);
        }
    }
}

/// Bounds-checked little-endian reader over one record.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let chunk = self.buf.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(chunk)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    fn string(&mut self) -> Option<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    fn metrics(&mut self) -> Option<Metrics> {
        let cycles = self.u64()?;
        let breakdown = CycleBreakdown {
            core_compute: self.u64()?,
            se_compute: self.u64()?,
            bank_service: self.u64()?,
            link: self.u64()?,
            dram: self.u64()?,
            chain: self.u64()?,
        };
        let hop_flits = [self.u64()?, self.u64()?, self.u64()?];
        let total_hop_flits = self.u64()?;
        let noc_utilization = self.f64()?;
        let l3_miss_rate = self.f64()?;
        let dram_accesses = self.u64()?;
        let energy = EnergyBreakdown {
            noc_hop_flits: self.u64()?,
            l3_accesses: self.u64()?,
            private_accesses: self.u64()?,
            dram_accesses: self.u64()?,
            core_ops: self.u64()?,
            se_ops: self.u64()?,
            cycles: self.u64()?,
        };
        let energy_pj = self.f64()?;
        let bank_imbalance = self.f64()?;
        let n_snaps = self.u32()? as usize;
        let mut occupancy = OccupancyTimeline::new();
        for _ in 0..n_snaps {
            let n_banks = self.u32()? as usize;
            let mut per_bank = Vec::with_capacity(n_banks.min(1 << 16));
            for _ in 0..n_banks {
                per_bank.push(self.f64()?);
            }
            let weight = self.f64()?;
            occupancy.push(OccupancySnapshot { per_bank, weight });
        }
        let degradation = DegradationReport {
            rerouted_messages: self.u64()?,
            detour_hops: self.u64()?,
            limped_messages: self.u64()?,
            remapped_banks: self.u64()?,
            remapped_bytes: self.u64()?,
            masked_capacity_bytes: self.u64()?,
            incore_fallback_streams: self.u64()?,
            rerouted_migrations: self.u64()?,
            excluded_banks: self.u64()?,
            fallback_allocations: self.u64()?,
            fault_epochs: self.u64()?,
            evacuated_lines: self.u64()?,
        };
        let n_transitions = self.u32()? as usize;
        let mut transitions = Vec::with_capacity(n_transitions.min(1 << 16));
        for _ in 0..n_transitions {
            transitions.push(self.fault_event()?);
        }
        let fragmentation_ratio = self.f64()?;
        let hint_source = match self.u8()? {
            0 => None,
            1 => Some(self.string()?),
            _ => return None,
        };
        let inferred_hints = self.u64()?;
        let n_tenants = self.u32()? as usize;
        let mut tenants = Vec::with_capacity(n_tenants.min(1 << 16));
        for _ in 0..n_tenants {
            let id = self.u32()?;
            let name = self.string()?;
            let mut u = aff_sim_core::tenant::TenantUsage::new(id, name);
            u.admitted = self.u64()?;
            u.quota_rejects = self.u64()?;
            u.shed = self.u64()?;
            u.retries = self.u64()?;
            u.backoff_ticks = self.u64()?;
            u.resident_bytes = self.u64()?;
            u.evacuated_lines = self.u64()?;
            u.migrated_bytes = self.u64()?;
            tenants.push(u);
        }
        Some(Metrics {
            cycles,
            breakdown,
            hop_flits,
            total_hop_flits,
            noc_utilization,
            l3_miss_rate,
            dram_accesses,
            energy,
            energy_pj,
            bank_imbalance,
            occupancy,
            degradation,
            transitions,
            fragmentation_ratio,
            tenants,
            hint_source,
            inferred_hints,
        })
    }

    fn link(&mut self) -> Option<LinkRef> {
        Some(LinkRef {
            fx: self.u32()?,
            fy: self.u32()?,
            tx: self.u32()?,
            ty: self.u32()?,
        })
    }

    fn fault_event(&mut self) -> Option<FaultEvent> {
        let cycle = self.u64()?;
        let change = match self.u8()? {
            0 => FaultChange::BankFail(self.u32()?),
            1 => FaultChange::BankRepair(self.u32()?),
            2 => FaultChange::BankSlow {
                bank: self.u32()?,
                multiplier: self.u32()?,
            },
            3 => FaultChange::LinkFail(self.link()?),
            4 => FaultChange::LinkRepair(self.link()?),
            5 => FaultChange::LinkDegrade {
                link: self.link()?,
                multiplier: self.u32()?,
            },
            _ => return None,
        };
        Some(FaultEvent { cycle, change })
    }

    fn cell_data(&mut self, tag: u8) -> Option<CellData> {
        match tag {
            1 => Some(CellData::Metrics(Box::new(self.metrics()?))),
            2 => {
                let metrics = self.metrics()?;
                let n = self.u32()? as usize;
                let mut iters = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let dir = match self.u8()? {
                        0 => Direction::Push,
                        1 => Direction::Pull,
                        _ => return None,
                    };
                    iters.push(IterStat {
                        dir,
                        active: self.u64()?,
                        visited: self.u64()?,
                        scout_edges: self.u64()?,
                        examined_edges: self.u64()?,
                    });
                }
                Some(CellData::Run(Box::new(SuiteRun { metrics, iters })))
            }
            3 => {
                let sim_cycles = self.u64()?;
                let n = self.u32()? as usize;
                let mut rows = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let label = self.string()?;
                    let n_vals = self.u32()? as usize;
                    let mut values = Vec::with_capacity(n_vals.min(1 << 16));
                    for _ in 0..n_vals {
                        values.push(self.f64()?);
                    }
                    rows.push(Row { label, values });
                }
                Some(CellData::Rows { rows, sim_cycles })
            }
            _ => None,
        }
    }

    /// The rest of the record as one entry. Trailing bytes signal format
    /// drift, so they refuse the record rather than decode "successfully".
    fn entry(&mut self) -> Option<CellEntry> {
        let figure = self.string()?;
        let cell_idx = self.u64()?;
        let label = self.string()?;
        let wall_ns = self.u64()?;
        let tag = self.u8()?;
        let result = if tag == 0 {
            Err(self.string()?)
        } else {
            Ok(self.cell_data(tag)?)
        };
        if self.pos != self.buf.len() {
            return None;
        }
        Some(CellEntry {
            figure,
            cell_idx,
            label,
            wall_ns,
            result,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics() -> Metrics {
        let mut occupancy = OccupancyTimeline::new();
        occupancy.push(OccupancySnapshot {
            per_bank: vec![0.5, 0.25, f64::NAN, 1.0],
            weight: 2.0,
        });
        Metrics {
            cycles: 123_456,
            breakdown: CycleBreakdown {
                core_compute: 1,
                se_compute: 2,
                bank_service: 3,
                link: 4,
                dram: 5,
                chain: 6,
            },
            hop_flits: [7, 8, 9],
            total_hop_flits: 24,
            noc_utilization: 0.125,
            l3_miss_rate: f64::NAN,
            dram_accesses: 10,
            energy: EnergyBreakdown {
                noc_hop_flits: 24,
                l3_accesses: 11,
                private_accesses: 12,
                dram_accesses: 10,
                core_ops: 13,
                se_ops: 14,
                cycles: 123_456,
            },
            energy_pj: 1.5e9,
            bank_imbalance: 3.25,
            occupancy,
            degradation: DegradationReport {
                rerouted_messages: 1,
                detour_hops: 2,
                fault_epochs: 2,
                evacuated_lines: 4096,
                ..DegradationReport::default()
            },
            transitions: vec![
                FaultEvent {
                    cycle: 100,
                    change: FaultChange::BankFail(9),
                },
                FaultEvent {
                    cycle: 2_000,
                    change: FaultChange::LinkDegrade {
                        link: LinkRef {
                            fx: 1,
                            fy: 1,
                            tx: 2,
                            ty: 1,
                        },
                        multiplier: 4,
                    },
                },
            ],
            fragmentation_ratio: 0.0625,
            hint_source: Some("inferred".to_string()),
            inferred_hints: 5,
            tenants: vec![{
                let mut u = aff_sim_core::tenant::TenantUsage::new(1, "bob");
                u.admitted = 99;
                u.resident_bytes = 1 << 16;
                u.evacuated_lines = 7;
                u
            }],
        }
    }

    fn entry(figure: &str, idx: u64, result: Result<CellData, String>) -> CellEntry {
        CellEntry {
            figure: figure.into(),
            cell_idx: idx,
            label: format!("{figure}#{idx}"),
            wall_ns: 42,
            result,
        }
    }

    fn failed(idx: u64, msg: &str) -> CellEntry {
        entry("fig4", idx, Err(msg.into()))
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("aff-store-tests");
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        let path = dir.join(format!("{name}-{}.cells", std::process::id()));
        std::fs::remove_file(&path).ok();
        path
    }

    /// A fresh store at `path` holding `entries`, keyed by cell index.
    fn write(path: &Path, salt: u64, entries: &[CellEntry]) {
        let mut s = CellStore::open(path, salt, false).expect("create");
        for e in entries {
            s.append(e.cell_idx, e).expect("append");
        }
    }

    fn message(s: &CellStore, key: u64) -> Option<&str> {
        s.get(key)
            .and_then(|e| e.result.as_ref().err())
            .map(String::as_str)
    }

    /// Byte offset of record `n`'s payload (walking the framing).
    fn payload_offset(bytes: &[u8], n: usize) -> usize {
        let mut pos = HEADER_LEN;
        for _ in 0..n {
            let len =
                u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
            pos += FRAME_LEN + len as usize;
        }
        pos + FRAME_LEN
    }

    #[test]
    fn roundtrip_every_cell_shape_bit_exact() {
        let path = tmp("roundtrip");
        let entries = vec![
            entry("fig4", 0, Ok(CellData::Metrics(Box::new(sample_metrics())))),
            entry(
                "fig17",
                3,
                Ok(CellData::Run(Box::new(SuiteRun {
                    metrics: sample_metrics(),
                    iters: vec![IterStat {
                        dir: Direction::Pull,
                        active: 1,
                        visited: 2,
                        scout_edges: 3,
                        examined_edges: 4,
                    }],
                }))),
            ),
            entry(
                "table2",
                1,
                Ok(CellData::Rows {
                    rows: vec![Row::new("r", vec![1.0, f64::NAN, -0.0])],
                    sim_cycles: 9,
                }),
            ),
            entry("fig6", 2, Err("cell panicked: boom".into())),
        ];
        write(&path, 7, &entries);
        let s = CellStore::open(&path, 7, true).expect("reopen");
        assert_eq!(s.entries.len(), 4);
        assert!(!s.stale);
        for e in &entries {
            let got = s.get(e.cell_idx).expect("entry present");
            assert_eq!((&got.figure, &got.label), (&e.figure, &e.label));
            // Compare through the encoder: bit-exact round-trip (NaN
            // payloads included) is exactly what it certifies.
            assert_eq!(record(0, got), record(0, e), "{}/{}", e.figure, e.cell_idx);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn another_salt_or_format_is_refused_and_recreated() {
        let path = tmp("salt");
        write(&path, 111, &[failed(0, "x")]);
        // Another build's store: nothing is served, and the file restarts
        // under the new salt (so the old salt now reads it as stale too).
        let s = CellStore::open(&path, 222, true).expect("open");
        assert!(s.stale && s.entries.is_empty());
        drop(s);
        let s = CellStore::open(&path, 222, true).expect("reopen");
        assert!(!s.stale && s.entries.is_empty());
        drop(s);
        assert!(CellStore::open(&path, 111, true).expect("old salt").stale);
        // Files of the retired formats (or anything else) are refused alike.
        for old in [&b"AFFJRNL4"[..], b"AFFMEMO1", b"not a store at all"] {
            let mut bytes = old.to_vec();
            bytes.resize(64, 0);
            std::fs::write(&path, &bytes).expect("clobber");
            let s = CellStore::open(&path, 222, true).expect("open");
            assert!(s.stale && s.entries.is_empty() && s.wall_hints.is_empty());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn without_keep_the_store_restarts_but_still_yields_hints() {
        let path = tmp("fresh");
        let mut e = failed(1, "x");
        e.wall_ns = 500;
        write(&path, 5, &[failed(0, "x"), e]);
        // Another salt as well: hints ignore it, they never change bytes.
        let s = CellStore::open(&path, 6, false).expect("truncate");
        assert!(s.entries.is_empty() && !s.stale);
        assert_eq!(s.wall_hints[&("fig4".to_string(), 1)], 500);
        drop(s);
        assert!(CellStore::open(&path, 6, true)
            .expect("reopen")
            .entries
            .is_empty());
        // A missing file is an empty store either way.
        let missing = tmp("missing");
        assert!(CellStore::open(&missing, 6, true)
            .expect("create")
            .entries
            .is_empty());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&missing).ok();
    }

    #[test]
    fn truncated_tail_keeps_the_intact_prefix() {
        let path = tmp("trunc");
        write(&path, 1, &[failed(0, "a"), failed(1, "b")]);
        let full = std::fs::read(&path).expect("read file");
        // Chop mid-way through the second record (torn write).
        std::fs::write(&path, &full[..full.len() - 5]).expect("truncate");
        let mut s = CellStore::open(&path, 1, true).expect("reopen");
        assert_eq!(message(&s, 0), Some("a"));
        assert!(s.get(1).is_none());
        // Reopening truncated to the trusted prefix: appends land cleanly.
        s.append(1, &failed(1, "b2")).expect("append");
        drop(s);
        let s = CellStore::open(&path, 1, true).expect("reread");
        assert_eq!(s.entries.len(), 2);
        assert_eq!(message(&s, 1), Some("b2"));
        assert_eq!(std::fs::metadata(&path).expect("stat").len(), {
            let mut len = HEADER_LEN;
            for e in [failed(0, "a"), failed(1, "b2")] {
                len += record(e.cell_idx, &e).len();
            }
            len as u64
        });
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_drops_the_record_and_its_suffix() {
        let path = tmp("bitflip");
        let entries = [failed(0, "a"), failed(1, "b"), failed(2, "c")];
        write(&path, 1, &entries);
        let mut bytes = std::fs::read(&path).expect("read file");
        let at = payload_offset(&bytes, 1) + 2;
        bytes[at] ^= 0x10;
        std::fs::write(&path, &bytes).expect("rewrite");
        let s = CellStore::open(&path, 1, true).expect("reopen");
        // First record survives; the flipped one and everything after drop,
        // along with their wall hints.
        assert_eq!(s.entries.len(), 1);
        assert!(s.get(0).is_some() && s.get(1).is_none() && s.get(2).is_none());
        assert_eq!(s.wall_hints.len(), 1);
        // A flipped length prefix is caught the same way.
        write(&path, 1, &entries);
        let mut bytes = std::fs::read(&path).expect("read file");
        let at = payload_offset(&bytes, 1) - FRAME_LEN;
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).expect("rewrite");
        assert_eq!(
            CellStore::open(&path, 1, true)
                .expect("reopen")
                .entries
                .len(),
            1
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_keys_resolve_to_the_last_intact_record() {
        let path = tmp("dup");
        write(&path, 1, &[failed(0, "first"), failed(0, "second")]);
        let s = CellStore::open(&path, 1, true).expect("reopen");
        assert_eq!(s.entries.len(), 1);
        assert_eq!(message(&s, 0), Some("second"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn io_problems_are_errors_the_caller_can_degrade_on() {
        // A directory cannot hold a store, with or without `keep`.
        let dir = std::env::temp_dir().join("aff_store_is_a_dir");
        std::fs::create_dir_all(&dir).expect("mkdir");
        assert!(CellStore::open(&dir, 1, true).is_err());
        assert!(CellStore::open(&dir, 1, false).is_err());
        // Neither can a path under a missing directory.
        let orphan = dir.join("no").join("such").join("dir.cells");
        assert!(CellStore::open(&orphan, 1, false).is_err());
        let _ = std::fs::remove_dir(&dir);
    }
}
