//! Agent configuration.

/// Tunables for the StegHide agents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgentConfig {
    /// Safety bound on the number of block-selection iterations in the
    /// Figure 6 update loop. The expected number is `N/D` (Section 4.1.5), so
    /// this bound is only hit when the volume has essentially no dummy blocks
    /// left.
    pub max_update_iterations: u32,
    /// Whether real updates relocate the block (Figure 6). Disabling this
    /// keeps the dummy-update stream but rewrites data in place; it exists
    /// for the ablation experiment showing that dummy updates alone do *not*
    /// defeat update analysis (Section 4.1.4's motivation).
    pub relocate_on_update: bool,
}

impl Default for AgentConfig {
    fn default() -> Self {
        Self {
            max_update_iterations: 100_000,
            relocate_on_update: true,
        }
    }
}

impl AgentConfig {
    /// Configuration with relocation disabled (ablation).
    pub fn without_relocation(mut self) -> Self {
        self.relocate_on_update = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_relocation() {
        let cfg = AgentConfig::default();
        assert!(cfg.relocate_on_update);
        assert!(cfg.max_update_iterations > 1000);
    }

    #[test]
    fn builders_modify_fields() {
        let cfg = AgentConfig::default().without_relocation();
        assert!(!cfg.relocate_on_update);
        assert_eq!(
            cfg.max_update_iterations,
            AgentConfig::default().max_update_iterations
        );
    }
}
