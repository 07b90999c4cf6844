//! Index structures backing the DIME⁺ signature framework: a disjoint-set
//! forest ([`UnionFind`]) for transitivity short-circuiting and connected
//! components, its lock-free sibling ([`ConcurrentUnionFind`]) for DIME⁺'s
//! engines, and the CR baseline's signature [`InvertedIndex`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod concurrent;
mod inverted;
mod union_find;

pub use concurrent::ConcurrentUnionFind;
pub use inverted::InvertedIndex;
pub use union_find::UnionFind;
