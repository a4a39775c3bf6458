//! Churn workload: a registered population orders of magnitude larger than
//! the set of concurrently active users, Zipf-skewed activity, and periodic
//! login/logout storms.
//!
//! This is the workload shape the persistent sharded registry is built for:
//! the registry must hold 10⁵–10⁶ registered users on disk while the agent's
//! resident state tracks only the (much smaller) active set. The generator
//! is fully deterministic — same seed, same event stream — so the scale
//! benchmark and the stress tests replay identical churn.

use std::collections::{BTreeSet, VecDeque};

use stegfs_crypto::HashDrbg;

use crate::patterns::ZipfDistribution;

/// Shape of a churn run.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Registered population (the registry holds all of them on disk).
    pub users: u64,
    /// Zipf skew of user activity (`0.0` = uniform; the default `0.99` is
    /// the classic YCSB-style hot-user skew).
    pub theta: f64,
    /// Cap on concurrently active sessions — the O(active users) budget.
    pub max_active: usize,
    /// A login/logout storm fires every this many steps.
    pub storm_period: u64,
    /// Sessions cycled per storm.
    pub storm_size: usize,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        Self {
            users: 100_000,
            theta: 0.99,
            max_active: 256,
            storm_period: 1024,
            storm_size: 64,
        }
    }
}

impl ChurnConfig {
    /// Set the registered population.
    pub fn with_users(mut self, users: u64) -> Self {
        self.users = users;
        self
    }

    /// Set the activity skew.
    pub fn with_theta(mut self, theta: f64) -> Self {
        self.theta = theta;
        self
    }

    /// Set the active-session cap.
    pub fn with_max_active(mut self, max_active: usize) -> Self {
        self.max_active = max_active;
        self
    }
}

/// One event of the churn stream, naming the user (by index into the
/// registered population) it applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnOp {
    /// The user starts a session (was inactive).
    Login(u64),
    /// The user's session ends.
    Logout(u64),
    /// An active user looks its registry record up.
    Lookup(u64),
    /// An active user overwrites its registry record.
    Update(u64),
}

impl ChurnOp {
    /// The user the event applies to.
    pub fn user(&self) -> u64 {
        match *self {
            ChurnOp::Login(u) | ChurnOp::Logout(u) | ChurnOp::Lookup(u) | ChurnOp::Update(u) => u,
        }
    }
}

/// Deterministic generator of [`ChurnOp`] streams.
///
/// Per step a Zipf-ranked user is drawn: an already-active user does registry
/// traffic (lookups with occasional updates), an inactive one logs in —
/// evicting the oldest session when the active set is at its cap. Every
/// [`ChurnConfig::storm_period`] steps a storm cycles
/// [`ChurnConfig::storm_size`] sessions at once, the pathological case for a
/// registry whose login path rebuilds shared state.
#[derive(Debug, Clone)]
pub struct ChurnWorkload {
    cfg: ChurnConfig,
    zipf: ZipfDistribution,
    rng: HashDrbg,
    active: BTreeSet<u64>,
    order: VecDeque<u64>,
    step: u64,
    pending: VecDeque<ChurnOp>,
}

impl ChurnWorkload {
    /// Build a generator; same `(cfg, seed)` pairs yield identical streams.
    pub fn new(cfg: ChurnConfig, seed: u64) -> Self {
        assert!(cfg.users > 0, "population must be non-empty");
        assert!(cfg.max_active > 0, "active cap must be positive");
        let zipf = ZipfDistribution::new(cfg.users, cfg.theta);
        Self {
            cfg,
            zipf,
            rng: HashDrbg::from_u64(seed ^ 0xc4a5_2b1d),
            active: BTreeSet::new(),
            order: VecDeque::new(),
            step: 0,
            pending: VecDeque::new(),
        }
    }

    /// The configuration this stream runs under.
    pub fn config(&self) -> &ChurnConfig {
        &self.cfg
    }

    fn logout_oldest(&mut self) {
        if let Some(u) = self.order.pop_front() {
            self.active.remove(&u);
            self.pending.push_back(ChurnOp::Logout(u));
        }
    }

    fn login(&mut self, user: u64) {
        self.active.insert(user);
        self.order.push_back(user);
        self.pending.push_back(ChurnOp::Login(user));
    }

    fn generate_step(&mut self) {
        self.step += 1;
        if self.step.is_multiple_of(self.cfg.storm_period) {
            // Storm: mass logout of the oldest sessions, then a burst of
            // fresh logins drawn from the skewed population.
            let burst = self.cfg.storm_size.min(self.order.len());
            for _ in 0..burst {
                self.logout_oldest();
            }
            let mut admitted = 0;
            while admitted < self.cfg.storm_size && self.active.len() < self.cfg.max_active {
                let u = self.zipf.sample(&mut self.rng);
                if !self.active.contains(&u) {
                    self.login(u);
                    admitted += 1;
                }
            }
            return;
        }
        let u = self.zipf.sample(&mut self.rng);
        if self.active.contains(&u) {
            if self.rng.next_u64().is_multiple_of(4) {
                self.pending.push_back(ChurnOp::Update(u));
            } else {
                self.pending.push_back(ChurnOp::Lookup(u));
            }
        } else {
            if self.active.len() >= self.cfg.max_active {
                self.logout_oldest();
            }
            self.login(u);
            self.pending.push_back(ChurnOp::Lookup(u));
        }
    }
}

impl Iterator for ChurnWorkload {
    type Item = ChurnOp;

    fn next(&mut self) -> Option<ChurnOp> {
        while self.pending.is_empty() {
            self.generate_step();
        }
        self.pending.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ChurnConfig {
        ChurnConfig::default()
            .with_users(500)
            .with_max_active(16)
            .with_theta(0.99)
    }

    #[test]
    fn identical_seeds_replay_the_same_stream() {
        let a: Vec<ChurnOp> = ChurnWorkload::new(small(), 7).take(4096).collect();
        let b: Vec<ChurnOp> = ChurnWorkload::new(small(), 7).take(4096).collect();
        assert_eq!(a, b);
        let c: Vec<ChurnOp> = ChurnWorkload::new(small(), 8).take(4096).collect();
        assert_ne!(a, c, "different seeds must diverge");
    }

    #[test]
    fn active_set_respects_the_cap_and_stays_consistent() {
        let mut w = ChurnWorkload::new(small(), 11);
        let mut active = BTreeSet::new();
        for _ in 0..20_000 {
            match w.next().unwrap() {
                ChurnOp::Login(u) => assert!(active.insert(u), "double login of {u}"),
                ChurnOp::Logout(u) => assert!(active.remove(&u), "logout of inactive {u}"),
                ChurnOp::Lookup(u) | ChurnOp::Update(u) => {
                    assert!(active.contains(&u), "traffic from inactive {u}")
                }
            }
            assert!(active.len() <= w.config().max_active);
        }
    }

    #[test]
    fn storms_cycle_sessions_and_skew_concentrates_activity() {
        let ops: Vec<ChurnOp> = ChurnWorkload::new(small(), 3).take(20_000).collect();
        let logouts = ops
            .iter()
            .filter(|o| matches!(o, ChurnOp::Logout(_)))
            .count();
        assert!(logouts > 100, "storms never cycled sessions: {logouts}");
        // Zipf skew: the hottest decile of users gets the majority of events.
        let mut per_user = std::collections::BTreeMap::new();
        for op in &ops {
            *per_user.entry(op.user()).or_insert(0u64) += 1;
        }
        let hot: u64 = per_user
            .iter()
            .filter(|(&u, _)| u < 50)
            .map(|(_, &n)| n)
            .sum();
        assert!(
            hot as f64 > ops.len() as f64 * 0.5,
            "hot decile got only {hot}/{} events",
            ops.len()
        );
    }
}
