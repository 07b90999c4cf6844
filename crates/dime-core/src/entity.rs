//! The entity and group model (paper Section II).
//!
//! An entity is defined over a multi-valued relation `R(A₁, …, Aₘ)`; each
//! attribute value is a list of values ("Authors" holds several names). A
//! *group* is a set of entities that some upstream categorizer placed
//! together — a Google Scholar profile, an Amazon category — and is the
//! unit DIME operates on.
//!
//! Internally every attribute value keeps three *facets*, one per
//! similarity family:
//!
//! * `tokens` — sorted, deduplicated interned token ids (set-based);
//! * `text` — the raw joined string (character-based);
//! * `node` — the mapped ontology node, if the attribute has an ontology
//!   (ontology-based).

use dime_ontology::{NodeId, Ontology};
use dime_text::{Dictionary, TokenId, TokenizerKind};
use std::sync::Arc;

/// Definition of one attribute of the relation.
#[derive(Debug, Clone)]
pub struct AttrDef {
    /// Attribute name, e.g. `"Authors"`.
    pub name: String,
    /// How raw strings split into set-similarity tokens.
    pub tokenizer: TokenizerKind,
}

/// The relation schema: an ordered list of attributes.
#[derive(Debug, Clone)]
pub struct Schema {
    attrs: Vec<AttrDef>,
}

impl Schema {
    /// Builds a schema from `(name, tokenizer)` pairs.
    pub fn new(attrs: impl IntoIterator<Item = (&'static str, TokenizerKind)>) -> Self {
        Self {
            attrs: attrs
                .into_iter()
                .map(|(name, tokenizer)| AttrDef { name: name.to_owned(), tokenizer })
                .collect(),
        }
    }

    /// Builds a schema from owned `(name, tokenizer)` pairs — the
    /// constructor used when attribute names come from data files rather
    /// than source code.
    pub fn from_owned(attrs: impl IntoIterator<Item = (String, TokenizerKind)>) -> Self {
        Self {
            attrs: attrs.into_iter().map(|(name, tokenizer)| AttrDef { name, tokenizer }).collect(),
        }
    }

    /// Number of attributes `m`.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Whether the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// The attribute definitions in order.
    pub fn attrs(&self) -> &[AttrDef] {
        &self.attrs
    }

    /// Index of the attribute named `name` (case-sensitive).
    pub fn attr_index(&self, name: &str) -> Option<usize> {
        self.attrs.iter().position(|a| a.name == name)
    }
}

/// One attribute value of an entity, with all three similarity facets.
#[derive(Debug, Clone)]
pub struct AttrValue {
    /// Sorted, deduplicated token ids of the value.
    pub tokens: Vec<TokenId>,
    /// The raw (lowercased, trimmed) string for character-based similarity.
    pub text: String,
    /// The ontology node this value maps to, when the attribute has an
    /// ontology and the value matched one of its nodes.
    pub node: Option<NodeId>,
    /// Number of *chars* in `text`, cached at construction. The edit DP
    /// runs over chars, so cost and threshold math must use this — not
    /// `text.len()`, which counts bytes and inflates for multi-byte UTF-8.
    pub char_len: u32,
    /// Whether `text` is pure ASCII (cached so the verify kernels can pick
    /// the byte-slice fast path without rescanning).
    pub is_ascii: bool,
}

impl AttrValue {
    /// Builds a value, caching the char length and ASCII-ness of `text`.
    pub fn new(tokens: Vec<TokenId>, text: String, node: Option<NodeId>) -> Self {
        let is_ascii = text.is_ascii();
        let char_len = if is_ascii { text.len() } else { text.chars().count() } as u32;
        Self { tokens, text, node, char_len, is_ascii }
    }
}

impl Default for AttrValue {
    fn default() -> Self {
        Self::new(Vec::new(), String::new(), None)
    }
}

/// An entity: one row of the multi-valued relation.
#[derive(Debug, Clone)]
pub struct Entity {
    /// Position of this entity within its group (stable id).
    pub id: usize,
    /// One value per schema attribute.
    pub values: Vec<AttrValue>,
}

impl Entity {
    /// The value of attribute `attr`.
    pub fn value(&self, attr: usize) -> &AttrValue {
        &self.values[attr]
    }
}

/// A group of entities categorized together, plus the shared similarity
/// context (token dictionary and per-attribute ontologies).
#[derive(Debug, Clone)]
pub struct Group {
    schema: Arc<Schema>,
    dictionary: Dictionary,
    ontologies: Vec<Option<Arc<Ontology>>>,
    entities: Vec<Entity>,
}

impl Group {
    /// The schema of this group's entities.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The shared token dictionary.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dictionary
    }

    /// The ontology attached to attribute `attr`, if any.
    pub fn ontology(&self, attr: usize) -> Option<&Ontology> {
        self.ontologies.get(attr).and_then(|o| o.as_deref())
    }

    /// All entities, indexed by id.
    pub fn entities(&self) -> &[Entity] {
        &self.entities
    }

    /// The entity with id `id`.
    pub fn entity(&self, id: usize) -> &Entity {
        &self.entities[id]
    }

    /// Number of entities `n`.
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// Whether the group has no entities.
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }

    /// Appends an entity with explicit ontology nodes (the growable-group
    /// entry point used by [`crate::IncrementalDime`]). Semantics match
    /// [`GroupBuilder::add_entity_with_nodes`].
    ///
    /// # Panics
    ///
    /// Panics if lengths differ from the schema arity.
    pub fn push_entity_with_nodes(
        &mut self,
        raw_values: &[&str],
        nodes: &[Option<NodeId>],
    ) -> usize {
        assert_eq!(raw_values.len(), self.schema.len(), "value arity mismatch");
        assert_eq!(nodes.len(), self.schema.len(), "node arity mismatch");
        let id = self.entities.len();
        let values = raw_values
            .iter()
            .zip(self.schema.attrs().to_vec())
            .zip(nodes)
            .map(|((raw, def), &node)| {
                let toks = def.tokenizer.tokenize(raw);
                let tokens = self.dictionary.observe(&toks);
                AttrValue::new(tokens, raw.trim().to_lowercase(), node)
            })
            .collect();
        self.entities.push(Entity { id, values });
        id
    }

    /// Appends an entity, auto-mapping ontology nodes like
    /// [`GroupBuilder::add_entity`].
    pub fn push_entity(&mut self, raw_values: &[&str]) -> usize {
        let nodes: Vec<Option<NodeId>> = raw_values
            .iter()
            .enumerate()
            .map(|(i, raw)| auto_map_value(self.ontologies[i].as_deref(), raw))
            .collect();
        self.push_entity_with_nodes(raw_values, &nodes)
    }

    /// Removes the entity with id `id`, compacting ids: every entity with a
    /// larger id shifts down by one so ids stay dense (`0..len`). Returns
    /// `false` (and changes nothing) for an out-of-range id.
    ///
    /// Tokens the removed entity interned stay in the dictionary — a
    /// dictionary only grows, which keeps the token order a live session
    /// saved (see [`crate::IncrementalDime`]) valid across removals.
    pub fn remove_entity(&mut self, id: usize) -> bool {
        if id >= self.entities.len() {
            return false;
        }
        self.entities.remove(id);
        for e in &mut self.entities[id..] {
            e.id -= 1;
        }
        true
    }
}

/// Maps a raw value to an ontology node: exact whole-value lookup first,
/// then the deepest per-token match, then — per paper footnote 2's
/// "approximate matching based on similarity functions" — the best
/// edit-similarity match above [`APPROX_MAP_THRESHOLD`] (0.8 — one edit on
/// a six-character name), which absorbs
/// typos like "SIGMD" → "sigmod".
fn auto_map_value(ont: Option<&Ontology>, raw: &str) -> Option<NodeId> {
    let ont = ont?;
    let normalized = raw.trim().to_lowercase();
    // The root is the ontology's *name*, not a category — never a target
    // (mapping "unknown venue" to a root called "venue" would make it
    // spuriously similar to everything).
    if let Some(n) = ont.lookup(&normalized).filter(|&n| n != ont.root()) {
        return Some(n);
    }
    if let Some(n) = dime_text::tokenize_words(raw)
        .iter()
        .filter_map(|t| ont.lookup(t))
        .filter(|&n| n != ont.root())
        .max_by_key(|&n| ont.depth(n))
    {
        return Some(n);
    }
    approx_map_value(ont, &normalized)
}

/// Minimum normalized edit similarity for an approximate ontology match.
const APPROX_MAP_THRESHOLD: f64 = 0.8;

/// Best approximate node match by edit similarity, if any clears the
/// threshold (the whole value and each token are both tried).
fn approx_map_value(ont: &Ontology, normalized: &str) -> Option<NodeId> {
    if normalized.is_empty() {
        return None;
    }
    let tokens = dime_text::tokenize_words(normalized);
    let mut best: Option<(f64, u32, NodeId)> = None;
    for id in 1..ont.len() as NodeId {
        let name = ont.name(id);
        // Length pre-filter: similarity ≥ τ needs |len difference| small.
        let sim_whole = bounded_edit_similarity(name, normalized);
        let sim_tok =
            tokens.iter().map(|t| bounded_edit_similarity(name, t)).fold(0.0f64, f64::max);
        let sim = sim_whole.max(sim_tok);
        if sim >= APPROX_MAP_THRESHOLD {
            let depth = ont.depth(id);
            if best.is_none_or(|(bs, bd, _)| (sim, depth) > (bs, bd)) {
                best = Some((sim, depth, id));
            }
        }
    }
    best.map(|(_, _, id)| id)
}

/// Edit similarity with a cheap length-difference bound applied first.
fn bounded_edit_similarity(a: &str, b: &str) -> f64 {
    let (la, lb) = (a.chars().count(), b.chars().count());
    let max = la.max(lb);
    if max == 0 {
        return 1.0;
    }
    // sim = 1 − d/max and d ≥ |la − lb|.
    let bound = 1.0 - (la.abs_diff(lb) as f64) / max as f64;
    if bound < APPROX_MAP_THRESHOLD {
        return 0.0;
    }
    dime_text::edit_similarity(a, b)
}

/// Incrementally constructs a [`Group`].
///
/// # Examples
///
/// ```
/// use dime_core::{GroupBuilder, Schema};
/// use dime_text::TokenizerKind;
/// use dime_ontology::Ontology;
/// use std::sync::Arc;
///
/// let schema = Schema::new([
///     ("Title", TokenizerKind::Words),
///     ("Authors", TokenizerKind::List(',')),
///     ("Venue", TokenizerKind::Words),
/// ]);
/// let mut venues = Ontology::new("venue");
/// venues.add_path(&["computer science", "database", "sigmod"]);
///
/// let mut b = GroupBuilder::new(schema);
/// b.attach_ontology("Venue", Arc::new(venues));
/// let id = b.add_entity(&["KATARA: a data cleaning system", "Xu Chu, Nan Tang", "SIGMOD 2015"]);
/// let group = b.build();
/// assert_eq!(group.len(), 1);
/// // "SIGMOD 2015" auto-mapped to the sigmod node via token lookup.
/// assert!(group.entity(id).value(2).node.is_some());
/// ```
#[derive(Debug)]
pub struct GroupBuilder {
    schema: Arc<Schema>,
    dictionary: Dictionary,
    ontologies: Vec<Option<Arc<Ontology>>>,
    entities: Vec<Entity>,
}

impl GroupBuilder {
    /// Starts a builder over `schema`.
    pub fn new(schema: Schema) -> Self {
        let n = schema.len();
        Self {
            schema: Arc::new(schema),
            dictionary: Dictionary::new(),
            ontologies: vec![None; n],
            entities: Vec::new(),
        }
    }

    /// Attaches an ontology to the attribute named `attr_name`.
    ///
    /// # Panics
    ///
    /// Panics if the schema has no such attribute.
    pub fn attach_ontology(&mut self, attr_name: &str, ontology: Arc<Ontology>) {
        let idx = self
            .schema
            .attr_index(attr_name)
            // dime-check: allow(panic-reaches-service) — documented `# Panics` contract; the serve path only passes attribute names it just read out of this same schema
            .unwrap_or_else(|| panic!("schema has no attribute {attr_name:?}"));
        self.ontologies[idx] = Some(ontology);
    }

    /// Adds an entity from raw attribute strings, auto-mapping ontology
    /// nodes: the whole normalized value is looked up first, then each
    /// token, keeping the **deepest** matching node.
    ///
    /// Returns the new entity's id.
    ///
    /// # Panics
    ///
    /// Panics if `raw_values.len()` differs from the schema arity.
    pub fn add_entity(&mut self, raw_values: &[&str]) -> usize {
        let nodes: Vec<Option<NodeId>> =
            raw_values.iter().enumerate().map(|(i, raw)| self.auto_map(i, raw)).collect();
        self.add_entity_with_nodes(raw_values, &nodes)
    }

    /// Adds an entity with explicit per-attribute ontology nodes (use
    /// `None` for unmapped / ontology-less attributes). Data generators use
    /// this to bypass name lookup.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ from the schema arity.
    pub fn add_entity_with_nodes(
        &mut self,
        raw_values: &[&str],
        nodes: &[Option<NodeId>],
    ) -> usize {
        assert_eq!(raw_values.len(), self.schema.len(), "value arity mismatch");
        assert_eq!(nodes.len(), self.schema.len(), "node arity mismatch");
        let id = self.entities.len();
        let values = raw_values
            .iter()
            .zip(self.schema.attrs())
            .zip(nodes)
            .map(|((raw, def), &node)| {
                let toks = def.tokenizer.tokenize(raw);
                let tokens = self.dictionary.observe(&toks);
                AttrValue::new(tokens, raw.trim().to_lowercase(), node)
            })
            .collect();
        self.entities.push(Entity { id, values });
        id
    }

    /// Finalizes the group.
    pub fn build(self) -> Group {
        Group {
            schema: self.schema,
            dictionary: self.dictionary,
            ontologies: self.ontologies,
            entities: self.entities,
        }
    }

    fn auto_map(&self, attr: usize, raw: &str) -> Option<NodeId> {
        auto_map_value(self.ontologies[attr].as_deref(), raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new([
            ("Title", TokenizerKind::Words),
            ("Authors", TokenizerKind::List(',')),
            ("Venue", TokenizerKind::Words),
        ])
    }

    #[test]
    fn schema_lookup() {
        let s = schema();
        assert_eq!(s.len(), 3);
        assert_eq!(s.attr_index("Authors"), Some(1));
        assert_eq!(s.attr_index("authors"), None);
    }

    #[test]
    fn builder_tokenizes_per_attribute() {
        let mut b = GroupBuilder::new(schema());
        let id = b.add_entity(&["A Data Cleaning System", "Nan Tang, Xu Chu", "VLDB 2013"]);
        let g = b.build();
        let e = g.entity(id);
        assert_eq!(e.value(0).tokens.len(), 4); // a data cleaning system
        assert_eq!(e.value(1).tokens.len(), 2); // two author names
        let names: Vec<&str> =
            e.value(1).tokens.iter().map(|&t| g.dictionary().resolve(t).unwrap()).collect();
        assert!(names.contains(&"nan tang"));
    }

    #[test]
    fn auto_mapping_finds_deepest_node() {
        let mut venues = Ontology::new("venue");
        venues.add_path(&["computer science", "database", "vldb"]);
        let mut b = GroupBuilder::new(schema());
        b.attach_ontology("Venue", Arc::new(venues.clone()));
        let id = b.add_entity(&["t", "a", "VLDB 2013"]);
        let g = b.build();
        let node = g.entity(id).value(2).node.unwrap();
        assert_eq!(g.ontology(2).unwrap().name(node), "vldb");
    }

    #[test]
    fn unmapped_value_has_no_node() {
        let mut venues = Ontology::new("venue");
        venues.add_path(&["cs", "db", "vldb"]);
        let mut b = GroupBuilder::new(schema());
        b.attach_ontology("Venue", Arc::new(venues));
        let id = b.add_entity(&["t", "a", "Journal of Unknown Things"]);
        let g = b.build();
        assert!(g.entity(id).value(2).node.is_none());
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn wrong_arity_panics() {
        let mut b = GroupBuilder::new(schema());
        b.add_entity(&["only one"]);
    }

    #[test]
    #[should_panic(expected = "no attribute")]
    fn unknown_ontology_attr_panics() {
        let mut b = GroupBuilder::new(schema());
        b.attach_ontology("Nope", Arc::new(Ontology::new("x")));
    }

    #[test]
    fn approximate_mapping_absorbs_typos() {
        let mut venues = Ontology::new("venue");
        venues.add_path(&["cs", "db", "sigmod"]);
        let mut b = GroupBuilder::new(schema());
        b.attach_ontology("Venue", Arc::new(venues));
        let id = b.add_entity(&["t", "a", "SIGMD"]); // one deletion away
        let g = b.build();
        let n = g.entity(id).value(2).node.unwrap();
        assert_eq!(g.ontology(2).unwrap().name(n), "sigmod");
    }

    #[test]
    fn approximate_mapping_rejects_distant_values() {
        let mut venues = Ontology::new("venue");
        venues.add_path(&["cs", "db", "sigmod"]);
        let mut b = GroupBuilder::new(schema());
        b.attach_ontology("Venue", Arc::new(venues));
        let id = b.add_entity(&["t", "a", "Journal of Obscure Results"]);
        let g = b.build();
        assert!(g.entity(id).value(2).node.is_none());
    }

    #[test]
    fn group_push_matches_builder_semantics() {
        let mut b = GroupBuilder::new(schema());
        b.add_entity(&["first title", "ann, bob", "vldb"]);
        let mut g = b.build();
        let id = g.push_entity(&["second title", "ann, carol", "icde"]);
        assert_eq!(id, 1);
        assert_eq!(g.len(), 2);
        // Token sharing with pre-push entities works through the same
        // dictionary.
        let t0 = &g.entity(0).value(1).tokens;
        let t1 = &g.entity(1).value(1).tokens;
        assert!(t0.iter().any(|t| t1.contains(t)), "ann should be shared");
    }

    #[test]
    fn group_push_auto_maps_ontology() {
        let mut venues = Ontology::new("venue");
        venues.add_path(&["cs", "db", "vldb"]);
        let mut b = GroupBuilder::new(schema());
        b.attach_ontology("Venue", Arc::new(venues));
        let mut g = b.build();
        let id = g.push_entity(&["t", "a", "VLDB 2013"]);
        assert!(g.entity(id).value(2).node.is_some());
    }

    #[test]
    fn shared_dictionary_across_entities() {
        let mut b = GroupBuilder::new(schema());
        b.add_entity(&["data cleaning", "nan tang", "vldb"]);
        b.add_entity(&["data quality", "nan tang", "icde"]);
        let g = b.build();
        // "data" and "nan tang" interned once each.
        let t0 = &g.entity(0).value(0).tokens;
        let t1 = &g.entity(1).value(0).tokens;
        assert!(t0.iter().any(|t| t1.contains(t)));
        assert_eq!(g.entity(0).value(1).tokens, g.entity(1).value(1).tokens);
    }
}
