//! Human-readable descriptions and type-map inspection.
//!
//! The MPI standard defines a datatype by its *type map* — the sequence of
//! `(primitive, displacement)` pairs. [`Datatype::type_map_preview`]
//! materializes a bounded prefix of that map (for tests and debugging),
//! and [`Datatype::describe`] renders the constructor tree the way
//! `MPI_Type_get_envelope`/`get_contents` would let a tool print it.

use std::fmt::Write as _;

use crate::node::{ArrayOrder, Datatype, Kind};
use crate::primitive::Primitive;

/// One entry of a type map: a primitive at a byte displacement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TypeMapEntry {
    /// The leaf type.
    pub primitive: Primitive,
    /// Its byte displacement from the type origin.
    pub displacement: i64,
}

impl Datatype {
    /// The first `limit` entries of the type map, in typemap order.
    ///
    /// Intended for tests and debugging; the walk is O(entries visited).
    pub fn type_map_preview(&self, limit: usize) -> Vec<TypeMapEntry> {
        let mut out = Vec::with_capacity(limit.min(64));
        self.walk_typemap(0, &mut out, limit);
        out
    }

    fn walk_typemap(&self, base: i64, out: &mut Vec<TypeMapEntry>, limit: usize) {
        // An empty type has no entries: without this check, `count` empty
        // children would cost `count` visits that emit nothing.
        if out.len() >= limit || self.size() == 0 {
            return;
        }
        match self.kind() {
            Kind::Primitive(p) => {
                out.push(TypeMapEntry { primitive: *p, displacement: base });
            }
            Kind::Contiguous { count, child } => {
                let ext = child.extent() as i64;
                for i in 0..*count {
                    if out.len() >= limit {
                        return;
                    }
                    child.walk_typemap(base + i as i64 * ext, out, limit);
                }
            }
            Kind::Vector { count, blocklen, stride, child } => {
                let ext = child.extent() as i64;
                walk_blocks(
                    (0..*count).map(|j| (j as i64 * stride * ext, *blocklen)),
                    child,
                    base,
                    out,
                    limit,
                );
            }
            Kind::Hvector { count, blocklen, stride_bytes, child } => {
                walk_blocks(
                    (0..*count).map(|j| (j as i64 * stride_bytes, *blocklen)),
                    child,
                    base,
                    out,
                    limit,
                );
            }
            Kind::Indexed { blocks, child } => {
                let ext = child.extent() as i64;
                walk_blocks(blocks.iter().map(|&(bl, d)| (d * ext, bl)), child, base, out, limit);
            }
            Kind::Hindexed { blocks, child } => {
                walk_blocks(blocks.iter().map(|&(bl, d)| (d, bl)), child, base, out, limit);
            }
            Kind::IndexedBlock { blocklen, displacements, child } => {
                let ext = child.extent() as i64;
                walk_blocks(
                    displacements.iter().map(|&d| (d * ext, *blocklen)),
                    child,
                    base,
                    out,
                    limit,
                );
            }
            Kind::Struct { fields } => {
                for f in fields.iter() {
                    let ext = f.datatype.extent() as i64;
                    for k in 0..f.blocklen {
                        if out.len() >= limit {
                            return;
                        }
                        f.datatype.walk_typemap(
                            base + f.displacement + k as i64 * ext,
                            out,
                            limit,
                        );
                    }
                }
            }
            Kind::Subarray { sizes, subsizes, starts, order, child } => {
                // Walk the selected index tuples directly, innermost memory
                // dimension fastest. (Reconstructing leaves from coalesced
                // segments breaks for children that do not tile densely:
                // a segment is then shorter than the child extent and the
                // old walk re-emitted whole children at segment offsets.)
                let ndims = sizes.len();
                let mut stride = vec![1i64; ndims];
                match order {
                    ArrayOrder::C => {
                        for d in (0..ndims.saturating_sub(1)).rev() {
                            stride[d] = stride[d + 1] * sizes[d + 1] as i64;
                        }
                    }
                    ArrayOrder::Fortran => {
                        for d in 1..ndims {
                            stride[d] = stride[d - 1] * sizes[d - 1] as i64;
                        }
                    }
                }
                let fastest_last: Vec<usize> = match order {
                    ArrayOrder::C => (0..ndims).collect(),
                    ArrayOrder::Fortran => (0..ndims).rev().collect(),
                };
                let ext = child.extent() as i64;
                let total: u64 = subsizes.iter().product();
                let mut idx = vec![0u64; ndims];
                for _ in 0..total {
                    if out.len() >= limit {
                        return;
                    }
                    let mut elem = 0i64;
                    for d in 0..ndims {
                        elem += (starts[d] + idx[d]) as i64 * stride[d];
                    }
                    child.walk_typemap(base + elem * ext, out, limit);
                    for &d in fastest_last.iter().rev() {
                        idx[d] += 1;
                        if idx[d] < subsizes[d] {
                            break;
                        }
                        idx[d] = 0;
                    }
                }
            }
            Kind::Resized { child, .. } => child.walk_typemap(base, out, limit),
        }
    }

    /// A one-line summary: constructor, payload, extent, segment count.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} bytes over extent {} ({} segment{})",
            self.constructor_name(),
            self.size(),
            self.extent(),
            self.seg_count_hint(),
            if self.seg_count_hint() == 1 { "" } else { "s" }
        )
    }

    /// The MPI-ish constructor name of the root node.
    pub fn constructor_name(&self) -> &'static str {
        match self.kind() {
            Kind::Primitive(p) => p.name(),
            Kind::Contiguous { .. } => "CONTIGUOUS",
            Kind::Vector { .. } => "VECTOR",
            Kind::Hvector { .. } => "HVECTOR",
            Kind::Indexed { .. } => "INDEXED",
            Kind::Hindexed { .. } => "HINDEXED",
            Kind::IndexedBlock { .. } => "INDEXED_BLOCK",
            Kind::Struct { .. } => "STRUCT",
            Kind::Subarray { .. } => "SUBARRAY",
            Kind::Resized { .. } => "RESIZED",
        }
    }

    /// Render the constructor tree, one node per line, indented.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        self.describe_into(&mut out, 0);
        out
    }

    fn describe_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        let _ = match self.kind() {
            Kind::Primitive(p) => writeln!(out, "{pad}{} ({} bytes)", p.name(), p.size()),
            Kind::Contiguous { count, child } => {
                let _ = writeln!(out, "{pad}CONTIGUOUS count={count}");
                child.describe_into(out, depth + 1);
                Ok(())
            }
            Kind::Vector { count, blocklen, stride, child } => {
                let _ = writeln!(out, "{pad}VECTOR count={count} blocklen={blocklen} stride={stride}");
                child.describe_into(out, depth + 1);
                Ok(())
            }
            Kind::Hvector { count, blocklen, stride_bytes, child } => {
                let _ = writeln!(
                    out,
                    "{pad}HVECTOR count={count} blocklen={blocklen} stride={stride_bytes}B"
                );
                child.describe_into(out, depth + 1);
                Ok(())
            }
            Kind::Indexed { blocks, child } => {
                let _ = writeln!(out, "{pad}INDEXED blocks={}", blocks.len());
                child.describe_into(out, depth + 1);
                Ok(())
            }
            Kind::Hindexed { blocks, child } => {
                let _ = writeln!(out, "{pad}HINDEXED blocks={}", blocks.len());
                child.describe_into(out, depth + 1);
                Ok(())
            }
            Kind::IndexedBlock { blocklen, displacements, child } => {
                let _ = writeln!(
                    out,
                    "{pad}INDEXED_BLOCK blocklen={blocklen} blocks={}",
                    displacements.len()
                );
                child.describe_into(out, depth + 1);
                Ok(())
            }
            Kind::Struct { fields } => {
                let _ = writeln!(out, "{pad}STRUCT fields={}", fields.len());
                for f in fields.iter() {
                    let _ = writeln!(
                        out,
                        "{pad}  field @{} x{}:",
                        f.displacement, f.blocklen
                    );
                    f.datatype.describe_into(out, depth + 2);
                }
                Ok(())
            }
            Kind::Subarray { sizes, subsizes, starts, order, child } => {
                let _ = writeln!(
                    out,
                    "{pad}SUBARRAY sizes={sizes:?} subsizes={subsizes:?} starts={starts:?} order={order:?}"
                );
                child.describe_into(out, depth + 1);
                Ok(())
            }
            Kind::Resized { lb, extent, child } => {
                let _ = writeln!(out, "{pad}RESIZED lb={lb} extent={extent}");
                child.describe_into(out, depth + 1);
                Ok(())
            }
        };
    }
}

fn walk_blocks(
    blocks: impl Iterator<Item = (i64, u64)>,
    child: &Datatype,
    base: i64,
    out: &mut Vec<TypeMapEntry>,
    limit: usize,
) {
    let ext = child.extent() as i64;
    for (off, bl) in blocks {
        for k in 0..bl {
            if out.len() >= limit {
                return;
            }
            child.walk_typemap(base + off + k as i64 * ext, out, limit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArrayOrder;

    #[test]
    fn typemap_of_vector() {
        let d = Datatype::vector(3, 1, 2, &Datatype::f64()).unwrap();
        let tm = d.type_map_preview(10);
        assert_eq!(tm.len(), 3);
        assert_eq!(tm[0], TypeMapEntry { primitive: Primitive::Float64, displacement: 0 });
        assert_eq!(tm[1].displacement, 16);
        assert_eq!(tm[2].displacement, 32);
    }

    #[test]
    fn typemap_respects_limit() {
        let d = Datatype::vector(1000, 1, 2, &Datatype::f64()).unwrap();
        assert_eq!(d.type_map_preview(5).len(), 5);
    }

    #[test]
    fn typemap_of_struct_in_field_order() {
        let d = Datatype::structure(&[
            (1, 8, Datatype::f64()),
            (2, 0, Datatype::i32()),
        ])
        .unwrap();
        let tm = d.type_map_preview(10);
        // Typemap order = definition order, not address order.
        assert_eq!(tm[0].primitive, Primitive::Float64);
        assert_eq!(tm[0].displacement, 8);
        assert_eq!(tm[1].primitive, Primitive::Int32);
        assert_eq!(tm[1].displacement, 0);
        assert_eq!(tm[2].displacement, 4);
    }

    #[test]
    fn typemap_of_subarray_matches_segments() {
        let d = Datatype::subarray(&[3, 4], &[2, 2], &[1, 1], ArrayOrder::C, &Datatype::f64())
            .unwrap();
        let tm = d.type_map_preview(16);
        let offsets: Vec<i64> = tm.iter().map(|e| e.displacement).collect();
        assert_eq!(offsets, vec![(4 + 1) * 8, (4 + 2) * 8, (8 + 1) * 8, (8 + 2) * 8]);
    }

    #[test]
    fn typemap_total_matches_size() {
        let d = Datatype::structure(&[
            (2, 0, Datatype::i32()),
            (1, 8, Datatype::vector(3, 1, 2, &Datatype::f64()).unwrap()),
        ])
        .unwrap();
        let tm = d.type_map_preview(usize::MAX);
        let total: usize = tm.iter().map(|e| e.primitive.size()).sum();
        assert_eq!(total as u64, d.size());
    }

    #[test]
    fn describe_renders_tree() {
        let inner = Datatype::vector(4, 1, 2, &Datatype::f64()).unwrap();
        let outer = Datatype::contiguous(2, &inner).unwrap();
        let s = outer.describe();
        assert!(s.contains("CONTIGUOUS count=2"));
        assert!(s.contains("VECTOR count=4 blocklen=1 stride=2"));
        assert!(s.contains("FLOAT64"));
        assert!(outer.summary().contains("CONTIGUOUS"));
    }

    #[test]
    fn resized_describes_child() {
        let d = Datatype::resized(&Datatype::f64(), -4, 16).unwrap();
        let tm = d.type_map_preview(4);
        assert_eq!(tm, vec![TypeMapEntry { primitive: Primitive::Float64, displacement: 0 }]);
        assert!(d.describe().contains("RESIZED lb=-4 extent=16"));
    }
}

/// Whether two datatypes select the *same bytes in the same order* (equal
/// coalesced segment streams), regardless of how they were constructed.
///
/// This is the equivalence the pack engine guarantees: `layout_eq(a, b)`
/// implies `pack(src, a) == pack(src, b)` for any buffer both fit in.
/// Extents may still differ (affects multi-instance tiling).
pub fn layout_eq(a: &Datatype, b: &Datatype) -> bool {
    let mut ia = crate::segiter::SegIter::new(a, 1);
    let mut ib = crate::segiter::SegIter::new(b, 1);
    loop {
        match (ia.next(), ib.next()) {
            (None, None) => return true,
            (Some(x), Some(y)) if x == y => continue,
            _ => return false,
        }
    }
}

#[cfg(test)]
mod layout_tests {
    use super::layout_eq;
    use crate::{ArrayOrder, Datatype};

    #[test]
    fn vector_equals_equivalent_constructions() {
        let v = Datatype::vector(6, 1, 2, &Datatype::f64()).unwrap();
        let s = Datatype::subarray(&[6, 2], &[6, 1], &[0, 0], ArrayOrder::C, &Datatype::f64())
            .unwrap();
        let ib = Datatype::indexed_block(1, &[0, 2, 4, 6, 8, 10], &Datatype::f64()).unwrap();
        assert!(layout_eq(&v, &s));
        assert!(layout_eq(&v, &ib));
    }

    #[test]
    fn different_selections_differ() {
        let a = Datatype::vector(4, 1, 2, &Datatype::f64()).unwrap();
        let b = Datatype::vector(4, 1, 3, &Datatype::f64()).unwrap();
        let c = Datatype::vector(5, 1, 2, &Datatype::f64()).unwrap();
        assert!(!layout_eq(&a, &b));
        assert!(!layout_eq(&a, &c));
    }

    #[test]
    fn extent_does_not_affect_layout_equality() {
        let a = Datatype::f64();
        let r = Datatype::resized(&a, 0, 32).unwrap();
        assert!(layout_eq(&a, &r));
        assert_ne!(a.extent(), r.extent());
    }

    #[test]
    fn preview_skips_empty_children_without_visiting_them() {
        let empty = Datatype::contiguous(0, &Datatype::f64()).unwrap();
        let t = Datatype::vector(1 << 40, 1, 1, &empty).unwrap();
        assert!(t.type_map_preview(8).is_empty());
    }

    #[test]
    fn empty_types_are_layout_equal() {
        let a = Datatype::contiguous(0, &Datatype::f64()).unwrap();
        let b = Datatype::vector(0, 3, 7, &Datatype::i32()).unwrap();
        assert!(layout_eq(&a, &b));
    }
}
