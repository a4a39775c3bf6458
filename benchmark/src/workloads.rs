//! The four workloads and the generator that turns a seed into operations.
//!
//! Names are permanent: results are compared across commits by name. Every
//! bit of randomness in an operation stream comes from `--seed` through the
//! repo's own `HashDrbg` and access patterns; the systems under test receive
//! only the generated operations.

use crate::adapters::{AccessPattern, Rng};
use crate::oracle::Oracle;

/// Which public API the workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// `steghide::ConcurrentAgent`.
    Agent,
    /// `stegfs_oblivious::ObliviousStore`.
    Oblivious,
    /// `stegfs_resilience::ResilientStore`.
    Durable,
}

/// Operation mix in percent; the four shares sum to 100.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub read: u32,
    pub update: u32,
    pub read_file: u32,
    pub write_file: u32,
}

/// A background cover stream: one batch of `k` dummy updates after every
/// `every` user operations. Its time counts toward throughput; it is not an
/// operation.
#[derive(Debug, Clone, Copy)]
pub struct Cover {
    pub every: u32,
    pub k: u32,
}

#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub system: SystemKind,
    /// Blocks of the volume (agent, durable) — the oblivious store sizes its
    /// own partitions.
    pub volume_blocks: u64,
    pub files: u32,
    pub blocks_per_file: u32,
    pub mix: Mix,
    /// Zipf skew of the block choice; `None` is uniform.
    pub block_theta: Option<f64>,
    pub cover: Option<Cover>,
    /// Blocks one `write_file` changes.
    pub write_file_changes: u32,
    /// Operations per timed round (passes 1 and 2).
    pub round_ops: u64,
    /// Operations of the simulated-disk pass (pass 3).
    pub sim_ops: u64,
    /// Operations of the traced pass (pass 4).
    pub trace_ops: u64,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "agent_read_mostly",
        why: "90% read_block on a quarter-full ConcurrentAgent volume: device read, codec open and CBC decrypt do the work, relocation almost none (E = 1.33)",
        system: SystemKind::Agent,
        volume_blocks: 32_768,
        files: 32,
        blocks_per_file: 256,
        mix: Mix { read: 90, update: 10, read_file: 0, write_file: 0 },
        block_theta: Some(0.8),
        cover: None,
        write_file_changes: 0,
        round_ops: 40_000,
        sim_ops: 100_000,
        trace_ops: 200_000,
    },
    Spec {
        name: "agent_update_heavy",
        why: "95% update_block plus a dummy-update cover stream on a three-quarter-full volume: E = 4 relocation iterations, so reseal, CBC encrypt, DRBG lock and map claims dominate",
        system: SystemKind::Agent,
        volume_blocks: 32_768,
        files: 96,
        blocks_per_file: 256,
        // The issue specifies 100% updates; the benchmark contract makes every
        // workload report every end-to-end metric, read latency included, so
        // one op in twenty is a verifying read.
        mix: Mix { read: 5, update: 95, read_file: 0, write_file: 0 },
        block_theta: None,
        cover: Some(Cover { every: 8, k: 8 }),
        write_file_changes: 0,
        round_ops: 4_000,
        sim_ops: 30_000,
        trace_ops: 40_000,
    },
    Spec {
        name: "oblivious_read",
        why: "90% read on an ObliviousStore whose working set is 64x its buffer: level probes, hash index, external sort and ranged I/O do the work; amortised reorders make mean and tail disagree with the median",
        system: SystemKind::Oblivious,
        volume_blocks: 0,
        files: 1,
        blocks_per_file: 4_096,
        mix: Mix { read: 90, update: 10, read_file: 0, write_file: 0 },
        block_theta: Some(0.8),
        cover: None,
        write_file_changes: 0,
        round_ops: 16_384,
        sim_ops: 16_384,
        trace_ops: 12_288,
    },
    Spec {
        name: "durable_mixed",
        why: "write_block / write_file / read_file on a (4,2)-striped journaled ResilientStore, scrub riding the cover stream, then reopen and read back: journal, delta parity, stripe map and inline checks work",
        system: SystemKind::Durable,
        volume_blocks: 16_384,
        files: 32,
        blocks_per_file: 64,
        mix: Mix { read: 0, update: 60, read_file: 30, write_file: 10 },
        block_theta: None,
        cover: Some(Cover { every: 8, k: 8 }),
        write_file_changes: 8,
        round_ops: 1_000,
        sim_ops: 10_000,
        trace_ops: 10_000,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One generated operation, carrying the oracle versions it needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Read one block; it must hold `version`.
    Read { file: u32, block: u32, version: u32 },
    /// Overwrite one block with `version`.
    Update { file: u32, block: u32, version: u32 },
    /// Read a whole file; block `i` must hold `versions[i]`.
    ReadFile { file: u32, versions: Box<[u32]> },
    /// Rewrite a whole file to `versions`; `changed` blocks differ from what
    /// the file holds.
    WriteFile {
        file: u32,
        versions: Box<[u32]>,
        changed: u32,
    },
    /// One batch of `k` dummy updates.
    Cover { k: u32 },
}

impl Op {
    /// Cover batches ride along; everything else is a user operation.
    pub fn is_user_op(&self) -> bool {
        !matches!(self, Op::Cover { .. })
    }
}

/// The operation stream of one client. With `clients > 1` the block space is
/// partitioned (by file, or by block id when there is one file) so every
/// block has exactly one writer and the oracle's version order is the
/// execution order.
pub struct Generator {
    spec: &'static Spec,
    rng: Rng,
    pattern: AccessPattern,
    client: u32,
    clients: u32,
    since_cover: u32,
}

impl Generator {
    pub fn new(spec: &'static Spec, seed: u64, client: u32, clients: u32) -> Self {
        assert!(client < clients);
        let ranks = if spec.files > 1 {
            spec.blocks_per_file
        } else {
            spec.blocks_per_file / clients
        } as u64;
        let pattern = match spec.block_theta {
            Some(theta) => AccessPattern::zipf(ranks, theta),
            None => AccessPattern::uniform(ranks),
        };
        let label = format!("benchmark:{}:{seed}:{client}/{clients}", spec.name);
        Self {
            spec,
            rng: Rng::new(label.as_bytes()),
            pattern,
            client,
            clients,
            since_cover: 0,
        }
    }

    fn pick_file(&mut self) -> u32 {
        if self.spec.files == 1 {
            return 0;
        }
        let mine = (self.spec.files - self.client).div_ceil(self.clients);
        self.rng.gen_range(mine as u64) as u32 * self.clients + self.client
    }

    fn pick_block(&mut self) -> u32 {
        let rank = self.pattern.next(&mut self.rng) as u32;
        if self.spec.files == 1 {
            rank * self.clients + self.client
        } else {
            rank
        }
    }

    /// Generate the next `user_ops` user operations (cover batches are
    /// interleaved on top), advancing `oracle` as writes are generated.
    pub fn round(&mut self, user_ops: u64, oracle: &mut Oracle) -> Vec<Op> {
        let mix = self.spec.mix;
        let mut ops = Vec::with_capacity(user_ops as usize + user_ops as usize / 8 + 1);
        for _ in 0..user_ops {
            let roll = self.rng.gen_range(100) as u32;
            let file = self.pick_file();
            let op = if roll < mix.read {
                let block = self.pick_block();
                Op::Read {
                    file,
                    block,
                    version: oracle.version(file, block),
                }
            } else if roll < mix.read + mix.update {
                let block = self.pick_block();
                Op::Update {
                    file,
                    block,
                    version: oracle.bump(file, block),
                }
            } else if roll < mix.read + mix.update + mix.read_file {
                Op::ReadFile {
                    file,
                    versions: oracle.file_versions(file).into(),
                }
            } else {
                debug_assert!(mix.write_file > 0, "the shares sum to 100");
                // Distinct blocks: a block drawn twice would change once.
                let mut changed = Vec::with_capacity(self.spec.write_file_changes as usize);
                while changed.len() < self.spec.write_file_changes as usize {
                    let block = self.pick_block();
                    if !changed.contains(&block) {
                        changed.push(block);
                        oracle.bump(file, block);
                    }
                }
                Op::WriteFile {
                    file,
                    versions: oracle.file_versions(file).into(),
                    changed: changed.len() as u32,
                }
            };
            ops.push(op);
            if let Some(cover) = self.spec.cover {
                self.since_cover += 1;
                if self.since_cover == cover.every {
                    self.since_cover = 0;
                    ops.push(Op::Cover { k: cover.k });
                }
            }
        }
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle_for(spec: &Spec) -> Oracle {
        Oracle::new(spec.files, spec.blocks_per_file)
    }

    #[test]
    fn mixes_sum_to_100_and_names_are_unique() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            let m = w.mix;
            assert_eq!(
                m.read + m.update + m.read_file + m.write_file,
                100,
                "{}",
                w.name
            );
            assert!(
                m.read + m.read_file > 0 && m.update > 0,
                "{} needs reads and updates",
                w.name
            );
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
        }
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for spec in &WORKLOADS {
            let gen = |seed| {
                let mut oracle = oracle_for(spec);
                Generator::new(spec, seed, 0, 1).round(500, &mut oracle)
            };
            assert_eq!(gen(1), gen(1), "{}", spec.name);
            assert_ne!(gen(1), gen(2), "{}", spec.name);
        }
    }

    #[test]
    fn versions_follow_generation_order() {
        let spec = find("durable_mixed").unwrap();
        let mut oracle = oracle_for(spec);
        let ops = Generator::new(spec, 3, 0, 1).round(400, &mut oracle);
        let mut shadow = oracle_for(spec);
        let (mut user, mut cover) = (0, 0);
        for op in &ops {
            match op {
                Op::Read {
                    file,
                    block,
                    version,
                } => {
                    assert_eq!(*version, shadow.version(*file, *block))
                }
                Op::Update {
                    file,
                    block,
                    version,
                } => {
                    assert_eq!(*version, shadow.bump(*file, *block))
                }
                Op::ReadFile { file, versions } => {
                    assert_eq!(&versions[..], shadow.file_versions(*file))
                }
                Op::WriteFile {
                    file,
                    versions,
                    changed,
                } => {
                    let differing: Vec<u32> = (0..spec.blocks_per_file)
                        .filter(|&b| versions[b as usize] != shadow.version(*file, b))
                        .collect();
                    assert_eq!(differing.len() as u32, spec.write_file_changes);
                    assert_eq!(*changed, spec.write_file_changes);
                    for b in differing {
                        assert_eq!(versions[b as usize], shadow.bump(*file, b));
                    }
                }
                Op::Cover { k } => assert_eq!(*k, 8),
            }
            if op.is_user_op() {
                user += 1;
            } else {
                cover += 1;
            }
        }
        assert_eq!((user, cover), (400, 50));
    }

    #[test]
    fn two_clients_never_share_a_block() {
        for spec in &WORKLOADS {
            let mut oracle = oracle_for(spec);
            let owners: Vec<Vec<(u32, u32)>> = (0..2)
                .map(|c| {
                    Generator::new(spec, 1, c, 2)
                        .round(300, &mut oracle)
                        .iter()
                        .filter_map(|op| match op {
                            Op::Read { file, block, .. } | Op::Update { file, block, .. } => {
                                Some((*file, *block))
                            }
                            Op::ReadFile { file, .. } | Op::WriteFile { file, .. } => {
                                Some((*file, u32::MAX))
                            }
                            Op::Cover { .. } => None,
                        })
                        .collect()
                })
                .collect();
            for &(file, block) in &owners[0] {
                assert!(
                    owners[1].iter().all(|&(f, b)| if spec.files > 1 {
                        f != file
                    } else {
                        b != block
                    }),
                    "{}: both clients touch file {file} block {block}",
                    spec.name
                );
            }
        }
    }
}
