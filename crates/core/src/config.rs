//! Agent configuration.

/// Tunables for the StegHide agents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgentConfig {
    /// Whether real updates relocate the block (Figure 6). Disabling this
    /// keeps the dummy-update stream but rewrites data in place; it exists
    /// for the ablation experiment showing that dummy updates alone do *not*
    /// defeat update analysis (Section 4.1.4's motivation).
    pub relocate_on_update: bool,
}

impl Default for AgentConfig {
    fn default() -> Self {
        Self {
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
    }

    #[test]
    fn builders_modify_fields() {
        let cfg = AgentConfig::default().without_relocation();
        assert!(!cfg.relocate_on_update);
    }
}
