//! Static manifest analysis (the APKTool-assisted inspection of §III-A).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use ea_framework::{AppManifest, Permission};

/// Per-category counts.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CategoryStats {
    /// Apps in the category.
    pub total: usize,
    /// With at least one exported component.
    pub exported: usize,
    /// Requesting `WAKE_LOCK`.
    pub wake_lock: usize,
    /// Requesting `WRITE_SETTINGS`.
    pub write_settings: usize,
}

/// Whole-corpus statistics — the three bars of Figure 2.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorpusStats {
    /// Total apps inspected.
    pub total: usize,
    /// Apps with at least one exported component.
    pub exported: usize,
    /// Apps requesting `WAKE_LOCK`.
    pub wake_lock: usize,
    /// Apps requesting `WRITE_SETTINGS`.
    pub write_settings: usize,
    /// Per-category breakdown.
    pub per_category: BTreeMap<String, CategoryStats>,
}

impl CorpusStats {
    /// Percentage with an exported component.
    pub fn exported_percent(&self) -> f64 {
        percent(self.exported, self.total)
    }

    /// Percentage requesting `WAKE_LOCK`.
    pub fn wake_lock_percent(&self) -> f64 {
        percent(self.wake_lock, self.total)
    }

    /// Percentage requesting `WRITE_SETTINGS`.
    pub fn write_settings_percent(&self) -> f64 {
        percent(self.write_settings, self.total)
    }
}

fn percent(count: usize, total: usize) -> f64 {
    if total == 0 {
        0.0
    } else {
        100.0 * count as f64 / total as f64
    }
}

/// Inspects every manifest for the three attack preconditions.
pub fn analyze(corpus: &[AppManifest]) -> CorpusStats {
    let mut stats = CorpusStats {
        total: corpus.len(),
        ..CorpusStats::default()
    };
    for manifest in corpus {
        let category = stats
            .per_category
            .entry(manifest.category.clone())
            .or_default();
        category.total += 1;
        if manifest.has_exported_component() {
            stats.exported += 1;
            category.exported += 1;
        }
        if manifest.has_permission(Permission::WakeLock) {
            stats.wake_lock += 1;
            category.wake_lock += 1;
        }
        if manifest.has_permission(Permission::WriteSettings) {
            stats.write_settings += 1;
            category.write_settings += 1;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_corpus, CorpusConfig};

    #[test]
    fn empty_corpus_yields_zeroes() {
        let stats = analyze(&[]);
        assert_eq!(stats.total, 0);
        assert_eq!(stats.exported_percent(), 0.0);
    }

    #[test]
    fn hand_built_manifests_count_correctly() {
        let corpus = vec![
            AppManifest::builder("a")
                .category("game")
                .activity("Main", true)
                .permission(Permission::WakeLock)
                .build(),
            AppManifest::builder("b")
                .category("game")
                .activity("Main", false)
                .permission(Permission::WriteSettings)
                .build(),
        ];
        let stats = analyze(&corpus);
        assert_eq!(stats.total, 2);
        assert_eq!(stats.exported, 1);
        assert_eq!(stats.wake_lock, 1);
        assert_eq!(stats.write_settings, 1);
        assert_eq!(stats.per_category["game"].total, 2);
        assert!((stats.exported_percent() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn per_category_totals_sum_to_corpus_total() {
        let stats = analyze(&generate_corpus(&CorpusConfig::paper(), 5));
        let sum: usize = stats.per_category.values().map(|c| c.total).sum();
        assert_eq!(sum, stats.total);
    }
}
