//! Arena-backed ontology trees.
//!
//! An ontology (paper Fig. 4 — Google Scholar Metrics) is a rooted tree of
//! named category nodes: `Venue → Computer Science → Database → SIGMOD`.
//! Entities map to nodes (by exact or approximate name match) and their
//! *semantic* similarity is derived from tree structure (see
//! [`crate::similarity`]).

use std::collections::HashMap;

/// Index of a node within an [`Ontology`] arena.
pub type NodeId = u32;

/// One node of the ontology tree.
#[derive(Debug, Clone)]
pub struct Node {
    /// Display name (also the lookup key, normalized to lowercase).
    pub name: String,
    /// Parent node; `None` only for the root.
    pub parent: Option<NodeId>,
    /// Depth of the node; the root has depth 1 (paper convention).
    pub depth: u32,
    /// Children, in insertion order.
    pub children: Vec<NodeId>,
}

/// A rooted ontology tree with name lookup.
///
/// # Examples
///
/// ```
/// use dime_ontology::Ontology;
///
/// let mut ont = Ontology::new("venue");
/// let cs = ont.add_child(ont.root(), "computer science");
/// let db = ont.add_child(cs, "database");
/// let sigmod = ont.add_child(db, "sigmod");
/// assert_eq!(ont.depth(sigmod), 4);
/// assert_eq!(ont.lookup("sigmod"), Some(sigmod));
/// assert_eq!(ont.parent(sigmod), Some(db));
/// ```
#[derive(Debug, Clone)]
pub struct Ontology {
    nodes: Vec<Node>,
    by_name: HashMap<String, NodeId>,
}

impl Ontology {
    /// Creates an ontology containing only a root node named `root_name`.
    pub fn new(root_name: &str) -> Self {
        let root =
            Node { name: root_name.to_lowercase(), parent: None, depth: 1, children: Vec::new() };
        let mut by_name = HashMap::new();
        by_name.insert(root.name.clone(), 0);
        Self { nodes: vec![root], by_name }
    }

    /// The root node id (always 0).
    pub fn root(&self) -> NodeId {
        0
    }

    /// Adds a child named `name` under `parent`, returning its id.
    ///
    /// If a node with this (lowercased) name already exists anywhere in the
    /// tree, that node is returned instead — ontology names are unique keys.
    pub fn add_child(&mut self, parent: NodeId, name: &str) -> NodeId {
        let key = name.to_lowercase();
        if let Some(&id) = self.by_name.get(&key) {
            return id;
        }
        let id = self.nodes.len() as NodeId;
        let depth = self.nodes[parent as usize].depth + 1;
        self.nodes.push(Node {
            name: key.clone(),
            parent: Some(parent),
            depth,
            children: Vec::new(),
        });
        self.nodes[parent as usize].children.push(id);
        self.by_name.insert(key, id);
        id
    }

    /// Inserts a root-to-leaf path of names, creating missing nodes, and
    /// returns the id of the final (deepest) node.
    ///
    /// ```
    /// use dime_ontology::Ontology;
    /// let mut ont = Ontology::new("venue");
    /// let vldb = ont.add_path(&["computer science", "database", "vldb"]);
    /// assert_eq!(ont.depth(vldb), 4);
    /// ```
    pub fn add_path(&mut self, path: &[&str]) -> NodeId {
        let mut cur = self.root();
        for name in path {
            cur = self.add_child(cur, name);
        }
        cur
    }

    /// Finds a node by (case-insensitive) name.
    pub fn lookup(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(&name.to_lowercase()).copied()
    }

    /// Depth of `node` (root = 1).
    pub fn depth(&self, node: NodeId) -> u32 {
        self.nodes[node as usize].depth
    }

    /// Parent of `node`, `None` for the root.
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.nodes[node as usize].parent
    }

    /// Name of `node`.
    pub fn name(&self, node: NodeId) -> &str {
        &self.nodes[node as usize].name
    }

    /// Children of `node`.
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.nodes[node as usize].children
    }

    /// Total number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree has only its root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// The ancestor of `node` at exactly `depth` (1 = root). Returns `node`
    /// itself if its depth equals `depth`; `None` if `node` is shallower.
    pub fn ancestor_at_depth(&self, node: NodeId, depth: u32) -> Option<NodeId> {
        let mut cur = node;
        let d = self.depth(node);
        if depth > d || depth == 0 {
            return None;
        }
        for _ in depth..d {
            cur = self.parent(cur).expect("non-root node must have a parent");
        }
        Some(cur)
    }

    /// Lowest common ancestor of two nodes.
    pub fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        let (mut a, mut b) = (a, b);
        // Lift the deeper node to equal depth, then walk both up in lockstep.
        while self.depth(a) > self.depth(b) {
            a = self.parent(a).expect("deeper node has parent");
        }
        while self.depth(b) > self.depth(a) {
            b = self.parent(b).expect("deeper node has parent");
        }
        while a != b {
            a = self.parent(a).expect("non-root in lca walk");
            b = self.parent(b).expect("non-root in lca walk");
        }
        a
    }

    /// Whether `anc` is `node` or one of its ancestors.
    pub fn is_ancestor_or_self(&self, anc: NodeId, node: NodeId) -> bool {
        self.ancestor_at_depth(node, self.depth(anc)) == Some(anc)
    }

    /// All leaves (nodes without children).
    pub fn leaves(&self) -> Vec<NodeId> {
        (0..self.nodes.len() as NodeId)
            .filter(|&id| self.nodes[id as usize].children.is_empty())
            .collect()
    }

    /// The root-to-node name path of `node` (excluding the root).
    pub fn path_of(&self, node: NodeId) -> Vec<String> {
        let mut path = Vec::with_capacity(self.depth(node) as usize);
        let mut cur = Some(node);
        while let Some(n) = cur {
            if n != self.root() {
                path.push(self.name(n).to_owned());
            }
            cur = self.parent(n);
        }
        path.reverse();
        path
    }

    /// Exports the tree as root-to-leaf paths — the inverse of repeatedly
    /// calling [`Ontology::add_path`], and the JSON interchange format of
    /// the `dime` CLI.
    pub fn to_paths(&self) -> Vec<Vec<String>> {
        self.leaves().into_iter().filter(|&l| l != self.root()).map(|l| self.path_of(l)).collect()
    }

    /// Renders the tree as an indented outline (two spaces per level).
    pub fn render(&self) -> String {
        fn rec(ont: &Ontology, node: NodeId, out: &mut String) {
            let indent = (ont.depth(node) - 1) as usize * 2;
            out.push_str(&" ".repeat(indent));
            out.push_str(ont.name(node));
            out.push('\n');
            for &c in ont.children(node) {
                rec(ont, c, out);
            }
        }
        let mut out = String::new();
        rec(self, self.root(), &mut out);
        out
    }

    /// Rebuilds an ontology from exported paths.
    pub fn from_paths(root_name: &str, paths: &[Vec<String>]) -> Self {
        let mut ont = Ontology::new(root_name);
        for p in paths {
            let parts: Vec<&str> = p.iter().map(String::as_str).collect();
            ont.add_path(&parts);
        }
        ont
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Ontology, NodeId, NodeId, NodeId, NodeId) {
        // venue ── cs ── database ── {sigmod, vldb}
        //      └── chem ── rsc
        let mut o = Ontology::new("venue");
        let db = o.add_path(&["computer science", "database"]);
        let sigmod = o.add_child(db, "sigmod");
        let vldb = o.add_child(db, "vldb");
        let rsc = o.add_path(&["chemical sciences", "rsc advances"]);
        (o, db, sigmod, vldb, rsc)
    }

    #[test]
    fn depths_follow_paper_convention() {
        let (o, db, sigmod, ..) = sample();
        assert_eq!(o.depth(o.root()), 1);
        assert_eq!(o.depth(db), 3);
        assert_eq!(o.depth(sigmod), 4);
    }

    #[test]
    fn lca_same_branch_and_cross_branch() {
        let (o, db, sigmod, vldb, rsc) = sample();
        assert_eq!(o.lca(sigmod, vldb), db);
        assert_eq!(o.lca(sigmod, sigmod), sigmod);
        assert_eq!(o.lca(sigmod, db), db);
        assert_eq!(o.lca(sigmod, rsc), o.root());
    }

    #[test]
    fn ancestor_at_depth_walks_up() {
        let (o, db, sigmod, ..) = sample();
        assert_eq!(o.ancestor_at_depth(sigmod, 3), Some(db));
        assert_eq!(o.ancestor_at_depth(sigmod, 1), Some(o.root()));
        assert_eq!(o.ancestor_at_depth(sigmod, 4), Some(sigmod));
        assert_eq!(o.ancestor_at_depth(db, 4), None);
        assert_eq!(o.ancestor_at_depth(db, 0), None);
    }

    #[test]
    fn add_child_is_idempotent_by_name() {
        let mut o = Ontology::new("r");
        let a = o.add_child(0, "X");
        let b = o.add_child(0, "x");
        assert_eq!(a, b);
        assert_eq!(o.len(), 2);
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let (o, _, sigmod, ..) = sample();
        assert_eq!(o.lookup("SIGMOD"), Some(sigmod));
        assert_eq!(o.lookup("nope"), None);
    }

    #[test]
    fn is_ancestor_or_self_works() {
        let (o, db, sigmod, _, rsc) = sample();
        assert!(o.is_ancestor_or_self(db, sigmod));
        assert!(o.is_ancestor_or_self(sigmod, sigmod));
        assert!(o.is_ancestor_or_self(o.root(), rsc));
        assert!(!o.is_ancestor_or_self(sigmod, db));
        assert!(!o.is_ancestor_or_self(db, rsc));
    }

    #[test]
    fn paths_roundtrip() {
        let (o, ..) = sample();
        let paths = o.to_paths();
        assert!(paths.contains(&vec![
            "computer science".to_string(),
            "database".to_string(),
            "sigmod".to_string()
        ]));
        let rebuilt = Ontology::from_paths("venue", &paths);
        assert_eq!(rebuilt.len(), o.len());
        for id in 0..o.len() as NodeId {
            let name = o.name(id);
            let r = rebuilt.lookup(name).unwrap();
            assert_eq!(rebuilt.depth(r), o.depth(id), "{name}");
        }
    }

    #[test]
    fn render_is_indented_outline() {
        let (o, ..) = sample();
        let text = o.render();
        assert!(text.starts_with("venue\n"));
        assert!(text.contains("    database\n"));
        assert!(text.contains("      sigmod\n"));
    }

    #[test]
    fn path_of_excludes_root() {
        let (o, _, sigmod, ..) = sample();
        assert_eq!(o.path_of(sigmod), vec!["computer science", "database", "sigmod"]);
        assert!(o.path_of(o.root()).is_empty());
    }

    #[test]
    fn leaves_are_childless() {
        let (o, ..) = sample();
        let leaves = o.leaves();
        assert!(leaves.iter().all(|&l| o.children(l).is_empty()));
        assert_eq!(leaves.len(), 3); // sigmod, vldb, rsc advances
    }
}
