//! The versioned multi-grammar registry with hot-reload and audit trail.
//!
//! A [`GrammarRegistry`] maps grammar names to [`GrammarEntry`]s — immutable
//! `Arc`-held snapshots of a compiled artifact plus its version, swap
//! generation and content fingerprint. Publishing under an existing name
//! replaces the entry atomically (readers holding the old `Arc` keep serving
//! the version they pinned; the `vstar-serve` daemon pins per streaming
//! session, so a hot reload never changes the grammar under a half-fed
//! input). Every publish appends a [`ReloadAudit`] event carrying the old and
//! new artifact hashes and the monotonic swap generation, which the daemon
//! also mirrors into the access log's journal-schema records.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use serde::Serialize;
use vstar_parser::CompiledGrammar;

/// One immutable registered grammar: the artifact plus its identity.
#[derive(Debug)]
pub struct GrammarEntry {
    /// Registry name the entry is published under.
    pub name: String,
    /// Per-name version, starting at 1 and bumped by each publish.
    pub version: u64,
    /// Registry-wide swap generation at which this entry was published.
    pub generation: u64,
    /// [`CompiledGrammar::artifact_fingerprint`] of the artifact.
    pub hash: u64,
    /// The compiled artifact itself.
    pub grammar: Arc<CompiledGrammar>,
}

/// One hot-reload audit event: which grammar changed, from what to what.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct ReloadAudit {
    /// Registry-wide swap generation of this publish (monotonic).
    pub generation: u64,
    /// Grammar name published.
    pub grammar: String,
    /// The version this publish installed.
    pub version: u64,
    /// Fingerprint of the replaced artifact (`None` on first publish).
    pub old_hash: Option<u64>,
    /// Fingerprint of the installed artifact.
    pub new_hash: u64,
}

/// A process-wide, thread-safe name → [`GrammarEntry`] map with versioned
/// hot-reload.
///
/// Lookups take the read lock only long enough to clone an `Arc`; publishes
/// take the write lock only to swap a map entry. Nothing on the serve path
/// ever recompiles or copies an artifact.
#[derive(Debug, Default)]
pub struct GrammarRegistry {
    entries: RwLock<BTreeMap<String, Arc<GrammarEntry>>>,
    generation: AtomicU64,
    audit: Mutex<Vec<ReloadAudit>>,
}

impl GrammarRegistry {
    /// An empty registry at generation 0.
    #[must_use]
    pub fn new() -> Self {
        GrammarRegistry::default()
    }

    /// Publishes `grammar` under `name`: version 1 for a new name, the next
    /// version for an existing one. Appends this publish's audit event to the
    /// trail and returns it.
    pub fn publish(&self, name: &str, grammar: CompiledGrammar) -> ReloadAudit {
        self.publish_with(name, grammar, |_| {})
    }

    /// [`publish`](Self::publish), calling `observe` with this publish's own
    /// audit event while the audit trail is still locked: whatever `observe`
    /// records (the daemon's access-log mirror) is in the trail's generation
    /// order even under concurrent publishes, while readers of the entries
    /// are already unblocked.
    pub fn publish_with(
        &self,
        name: &str,
        grammar: CompiledGrammar,
        observe: impl FnOnce(&ReloadAudit),
    ) -> ReloadAudit {
        let hash = grammar.artifact_fingerprint();
        let mut entries = self.entries.write().expect("no panics under this lock");
        let old = entries.get(name);
        let version = old.map_or(1, |e| e.version + 1);
        let old_hash = old.map(|e| e.hash);
        let generation = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        let entry = Arc::new(GrammarEntry {
            name: name.to_string(),
            version,
            generation,
            hash,
            grammar: Arc::new(grammar),
        });
        entries.insert(name.to_string(), entry);
        let audit = ReloadAudit {
            generation,
            grammar: name.to_string(),
            version,
            old_hash,
            new_hash: hash,
        };
        // Taken before the entries lock is released, so the trail is in
        // generation order.
        let mut trail = self.audit.lock().expect("no panics under this lock");
        trail.push(audit.clone());
        drop(entries);
        observe(&audit);
        drop(trail);
        vstar_telemetry::event(
            "serve.reload",
            &[
                ("generation", generation),
                ("version", version),
                ("old_hash", old_hash.unwrap_or(0)),
                ("new_hash", hash),
            ],
        );
        audit
    }

    /// The current entry for `name`, if registered.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Arc<GrammarEntry>> {
        self.entries.read().expect("no panics under this lock").get(name).cloned()
    }

    /// The registered names, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        self.entries.read().expect("no panics under this lock").keys().cloned().collect()
    }

    /// The current entries, sorted by name.
    #[must_use]
    pub fn entries(&self) -> Vec<Arc<GrammarEntry>> {
        self.entries.read().expect("no panics under this lock").values().cloned().collect()
    }

    /// Number of registered grammars.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.read().expect("no panics under this lock").len()
    }

    /// Whether no grammar is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The registry-wide swap generation: the number of publishes so far.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// The hot-reload audit trail, in publish order.
    #[must_use]
    pub fn audit(&self) -> Vec<ReloadAudit> {
        self.audit.lock().expect("no panics under this lock").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstar_vpl::grammar::figure1_grammar;
    use vstar_vpl::{Tagging, VpgBuilder};

    fn dyck() -> CompiledGrammar {
        let tagging = Tagging::from_pairs([('(', ')')]).unwrap();
        let mut b = VpgBuilder::new(tagging);
        let s = b.nonterminal("S");
        b.match_rule(s, '(', s, ')', s);
        b.empty_rule(s);
        CompiledGrammar::from_vpg(&b.build(s).unwrap()).unwrap()
    }

    #[test]
    fn publish_versions_and_audits() {
        let registry = GrammarRegistry::new();
        assert!(registry.is_empty());
        assert!(registry.get("fig1").is_none());

        let fig1 = CompiledGrammar::from_vpg(&figure1_grammar()).unwrap();
        let fig1_hash = fig1.artifact_fingerprint();
        let first = registry.publish("fig1", fig1);
        assert_eq!((first.version, first.generation, first.new_hash), (1, 1, fig1_hash));
        assert_eq!(registry.get("fig1").unwrap().hash, fig1_hash);

        let dyck_grammar = dyck();
        let dyck_hash = dyck_grammar.artifact_fingerprint();
        registry.publish("dyck", dyck_grammar);
        assert_eq!(registry.names(), ["dyck", "fig1"]);
        assert_eq!(registry.len(), 2);

        // Republishing bumps the per-name version and the global generation;
        // a same-artifact reload audits equal old/new hashes.
        let again =
            registry.publish("fig1", CompiledGrammar::from_vpg(&figure1_grammar()).unwrap());
        assert_eq!((again.version, again.generation), (2, 3));
        assert_eq!(registry.generation(), 3);
        let audit = registry.audit();
        assert_eq!(audit.len(), 3);
        assert_eq!(audit[2], again);
        assert_eq!(
            audit[0],
            ReloadAudit {
                generation: 1,
                grammar: "fig1".into(),
                version: 1,
                old_hash: None,
                new_hash: fig1_hash,
            }
        );
        assert_eq!(audit[1].new_hash, dyck_hash);
        assert_eq!(audit[2].old_hash, Some(fig1_hash));
        assert_eq!(audit[2].new_hash, fig1_hash);
        assert!(audit.windows(2).all(|w| w[0].generation < w[1].generation));
    }

    #[test]
    fn readers_keep_their_pinned_version_across_reloads() {
        let registry = GrammarRegistry::new();
        registry.publish("g", CompiledGrammar::from_vpg(&figure1_grammar()).unwrap());
        let pinned = registry.get("g").unwrap();
        // Hot-reload a *different* grammar under the same name.
        registry.publish("g", dyck());
        let current = registry.get("g").unwrap();
        assert_eq!(pinned.version, 1);
        assert_eq!(current.version, 2);
        assert_ne!(pinned.hash, current.hash);
        // The pinned artifact still serves the old language.
        assert!(pinned.grammar.recognize("agcdcdhbcd"));
        assert!(!pinned.grammar.recognize("()"));
        assert!(current.grammar.recognize("()"));
    }
}
