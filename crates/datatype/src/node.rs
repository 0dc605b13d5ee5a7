//! The datatype tree: node kinds and derived-property computation.
//!
//! A [`Datatype`] is a cheaply clonable handle (an `Arc`) onto an immutable
//! tree of [`Kind`] nodes. All derived properties — size, bounds, extent,
//! signature, denseness, segment-count hints — are computed once at
//! construction and cached on the node, so queries are O(1) regardless of
//! how deeply types are nested.
//!
//! Construction costs what the description costs. Contiguous, vector,
//! hvector and subarray types are built in closed form, in O(1) whatever
//! their count: `vector(2^30, 1, 2)` allocates no per-block list. Only the
//! indexed kinds and structs, whose descriptions are lists, walk their
//! blocks, in O(blocks).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::error::{DatatypeError, Result};
use crate::primitive::Primitive;
use crate::signature::Signature;

/// A contiguous run of bytes within one instance of a datatype,
/// relative to the instance origin (the address the user buffer starts at).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// Byte offset relative to the instance origin. May be negative for
    /// resized types with a negative lower bound.
    pub offset: i64,
    /// Length in bytes. Never zero for blocks produced by iteration.
    pub len: u64,
}

/// How a subarray's dimensions map to memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayOrder {
    /// Row-major: the *last* dimension is contiguous in memory (C).
    C,
    /// Column-major: the *first* dimension is contiguous in memory (Fortran).
    Fortran,
}

/// One field of a struct datatype.
#[derive(Debug, Clone)]
pub struct StructField {
    /// Number of consecutive instances of `datatype`.
    pub blocklen: u64,
    /// Byte displacement of the field from the struct origin.
    pub displacement: i64,
    /// Element type of the field.
    pub datatype: Datatype,
}

/// The constructors of the datatype algebra, mirroring `MPI_Type_*`.
///
/// Field meanings follow the MPI calls they mirror; see the variant docs.
#[derive(Debug, Clone)]
#[allow(missing_docs)]
pub enum Kind {
    /// A predefined leaf type.
    Primitive(Primitive),
    /// `count` consecutive instances of `child`, tiled by its extent.
    Contiguous { count: u64, child: Datatype },
    /// `count` blocks of `blocklen` child elements; consecutive blocks are
    /// `stride` child *extents* apart (`MPI_Type_vector`).
    Vector { count: u64, blocklen: u64, stride: i64, child: Datatype },
    /// Like `Vector`, but the stride is given in *bytes*
    /// (`MPI_Type_create_hvector`).
    Hvector { count: u64, blocklen: u64, stride_bytes: i64, child: Datatype },
    /// Blocks of varying length at displacements counted in child extents
    /// (`MPI_Type_indexed`). Each entry is `(blocklen, displacement)`.
    Indexed { blocks: Arc<[(u64, i64)]>, child: Datatype },
    /// Blocks of varying length at *byte* displacements
    /// (`MPI_Type_create_hindexed`).
    Hindexed { blocks: Arc<[(u64, i64)]>, child: Datatype },
    /// Fixed-length blocks at displacements counted in child extents
    /// (`MPI_Type_create_indexed_block`).
    IndexedBlock { blocklen: u64, displacements: Arc<[i64]>, child: Datatype },
    /// Heterogeneous fields at byte displacements
    /// (`MPI_Type_create_struct`).
    Struct { fields: Arc<[StructField]> },
    /// An n-dimensional rectangular slice out of an n-dimensional array
    /// (`MPI_Type_create_subarray`).
    Subarray {
        sizes: Arc<[u64]>,
        subsizes: Arc<[u64]>,
        starts: Arc<[u64]>,
        order: ArrayOrder,
        child: Datatype,
    },
    /// A child with overridden lower bound and extent
    /// (`MPI_Type_create_resized`).
    Resized { lb: i64, extent: u64, child: Datatype },
}

/// Cached derived properties plus the defining [`Kind`].
#[derive(Debug)]
pub struct TypeNode {
    pub(crate) kind: Kind,
    pub(crate) size: u64,
    pub(crate) lb: i64,
    pub(crate) ub: i64,
    pub(crate) true_lb: i64,
    pub(crate) true_ub: i64,
    pub(crate) align: usize,
    /// `Some(block)` iff the full typemap is a single dense, in-order run.
    /// Empty types carry `Some(Block { offset: 0, len: 0 })`.
    pub(crate) dense: Option<Block>,
    /// Upper bound on the number of coalesced segments in one instance.
    pub(crate) seg_hint: u64,
    pub(crate) sig: Signature,
    pub(crate) committed: AtomicBool,
    /// Materialized, coalesced segment list, filled at commit time when the
    /// segment count is small enough (see [`Datatype::FLATTEN_CAP`]).
    pub(crate) flattened: OnceLock<Option<Arc<[Block]>>>,
    /// Depth of the type tree (primitives are depth 1).
    pub(crate) depth: u32,
    /// Process-unique node id; keys the compiled pack-plan cache.
    pub(crate) uid: u64,
    /// Memoized canonical form: `(normalized id, representative)`. `None`
    /// as the representative means this node is already canonical (no
    /// self-reference, which would leak the `Arc`). See `normalize`.
    pub(crate) norm: OnceLock<(u64, Option<Datatype>)>,
}

/// Next process-unique [`TypeNode`] id.
fn next_uid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A handle on an immutable derived-datatype tree.
#[derive(Clone, Debug)]
pub struct Datatype {
    pub(crate) node: Arc<TypeNode>,
}

fn cadd(a: i64, b: i64) -> Result<i64> {
    a.checked_add(b).ok_or(DatatypeError::Overflow)
}
fn cmul(a: i64, b: i64) -> Result<i64> {
    a.checked_mul(b).ok_or(DatatypeError::Overflow)
}
fn cmulu(a: u64, b: u64) -> Result<u64> {
    a.checked_mul(b).ok_or(DatatypeError::Overflow)
}

/// Byte offset `j * sb` of block `j` in a strided progression.
fn block_offset(j: u64, sb: i64) -> Result<i64> {
    if sb == 0 {
        return Ok(0);
    }
    cmul(i64::try_from(j).map_err(|_| DatatypeError::Overflow)?, sb)
}

/// The extent at which `child` tiles inside a block; negative extents
/// cannot tile.
fn tiling_extent(child: &Datatype) -> Result<i64> {
    let ext = child.extent_i64();
    if ext < 0 {
        return Err(DatatypeError::NegativeExtentChild);
    }
    Ok(ext)
}

/// One block's contribution to its parent: its bounds, and the run it
/// feeds the [`DenseTracker`].
struct Piece {
    lb: i64,
    ub: i64,
    tlb: i64,
    tub: i64,
    /// The block as a single run, when it is one (`len == 0` for an empty
    /// child).
    run: Option<Block>,
    /// Coalesced segments in the block, when it is not one run.
    segs: u64,
}

impl Piece {
    /// The per-block arithmetic of the "blocks of one child" kinds and of
    /// struct fields: `bl > 0` instances of `c` (extent `ext`) tiled from
    /// byte offset `off`.
    fn of(c: &TypeNode, ext: i64, off: i64, bl: u64) -> Result<Piece> {
        let span = cmul(i64::try_from(bl - 1).map_err(|_| DatatypeError::Overflow)?, ext)?;
        // The block is a single dense run if the child is dense and tiles
        // exactly by its extent.
        let tiles = c.dense.filter(|b| ext == b.len as i64 && c.size > 0);
        let (run, segs) = match (tiles, c.dense) {
            (Some(b), _) => (Some(Block { offset: cadd(off, b.offset)?, len: cmulu(b.len, bl)? }), 1),
            _ if c.size == 0 => (Some(Block { offset: off, len: 0 }), 0),
            (None, Some(b)) if bl == 1 => (Some(Block { offset: cadd(off, b.offset)?, len: b.len }), 1),
            (None, _) if bl == 1 => (None, c.seg_hint),
            (None, _) => (None, cmulu(bl, c.seg_hint)?),
        };
        Ok(Piece {
            lb: cadd(off, c.lb)?,
            ub: cadd(cadd(off, span)?, c.ub)?,
            tlb: cadd(off, c.true_lb)?,
            tub: cadd(cadd(off, span)?, c.true_ub)?,
            run,
            segs,
        })
    }
}

/// Bounds accumulator for min/max over typemap pieces; all zero when
/// nothing was included.
#[derive(Clone, Copy)]
struct Bounds {
    lb: i64,
    ub: i64,
    tlb: i64,
    tub: i64,
    any: bool,
}

impl Bounds {
    fn new() -> Self {
        Bounds { lb: 0, ub: 0, tlb: 0, tub: 0, any: false }
    }

    fn include(&mut self, p: &Piece) {
        if !self.any {
            *self = Bounds { lb: p.lb, ub: p.ub, tlb: p.tlb, tub: p.tub, any: true };
        } else {
            self.lb = self.lb.min(p.lb);
            self.ub = self.ub.max(p.ub);
            self.tlb = self.tlb.min(p.tlb);
            self.tub = self.tub.max(p.tub);
        }
    }

}

/// Tracks whether a sequence of emitted segments forms a single dense run,
/// and counts the coalesced segments.
struct DenseTracker {
    first: Option<Block>,
    expected_next: i64,
    dense: bool,
    segs: u64,
}

impl DenseTracker {
    fn new() -> Self {
        DenseTracker { first: None, expected_next: 0, dense: true, segs: 0 }
    }

    /// Feed the next run of `segs` segments; if the run itself is a single
    /// block `(offset, len)`, pass it so cross-run chaining can be detected.
    fn feed(&mut self, block: Option<Block>, segs: u64) {
        match block {
            Some(b) if b.len > 0 => {
                if let Some(f) = &mut self.first {
                    if self.dense && b.offset == self.expected_next {
                        f.len += b.len;
                    } else {
                        self.dense = false;
                        self.segs = self.segs.saturating_add(1);
                    }
                } else {
                    // Irregular runs may have been fed before the first
                    // single-block one; accumulate, don't reset.
                    self.first = Some(b);
                    self.segs = self.segs.saturating_add(1);
                }
                self.expected_next = b.offset.saturating_add(b.len as i64);
            }
            Some(_) => {} // empty block: contributes nothing
            None => {
                self.dense = false;
                self.segs = self.segs.saturating_add(segs);
            }
        }
    }

    /// Feeds `n` more runs continuing the progression of the last two fed,
    /// in O(1): the closed form of `n` calls to [`Self::feed`]. Two runs
    /// that chained are one step of their length apart, so every later run
    /// chains too; once they did not, each later run is one more segment.
    fn feed_repeats(&mut self, run: Option<Block>, segs: u64, n: u64) {
        if n == 0 {
            return;
        }
        match run {
            Some(b) if b.len == 0 => {}
            Some(b) => match &mut self.first {
                Some(f) if self.dense => {
                    f.len = f.len.saturating_add(b.len.saturating_mul(n));
                    self.expected_next = f.offset.saturating_add(f.len as i64);
                }
                _ => self.segs = self.segs.saturating_add(n),
            },
            None => {
                self.dense = false;
                self.segs = self.segs.saturating_add(segs.saturating_mul(n));
            }
        }
    }

    fn dense_block(&self) -> Option<Block> {
        match &self.first {
            // No data at all (and no irregular runs fed): the empty type.
            None if self.dense => Some(Block { offset: 0, len: 0 }),
            Some(b) if self.dense => Some(*b),
            _ => None,
        }
    }

    fn seg_count(&self) -> u64 {
        self.segs.max(if self.first.is_none() { 0 } else { 1 })
    }
}

impl TypeNode {
    /// Builds a node from a kind, computing every cached property.
    /// Constructor-level validation (array length agreement, subarray
    /// consistency) is done by the public builders before calling this.
    pub(crate) fn build(kind: Kind) -> Result<Datatype> {
        let node = match &kind {
            Kind::Primitive(p) => {
                let size = p.size() as u64;
                TypeNode {
                    size,
                    lb: 0,
                    ub: size as i64,
                    true_lb: 0,
                    true_ub: size as i64,
                    align: p.align(),
                    dense: Some(Block { offset: 0, len: size }),
                    seg_hint: 1,
                    sig: Signature::of(*p),
                    committed: AtomicBool::new(true),
                    flattened: OnceLock::new(),
                    depth: 1,
                    uid: next_uid(),
                    norm: OnceLock::new(),
                    kind: kind.clone(),
                }
            }
            // One block of `count` children at offset zero.
            Kind::Contiguous { count, child } => Self::build_strided(&kind, 1, *count, 0, child)?,
            Kind::Vector { count, blocklen, stride, child } => {
                let sb = cmul(*stride, child.extent_i64())?;
                Self::build_strided(&kind, *count, *blocklen, sb, child)?
            }
            Kind::Hvector { count, blocklen, stride_bytes, child } => {
                Self::build_strided(&kind, *count, *blocklen, *stride_bytes, child)?
            }
            Kind::Indexed { blocks, child } => {
                let ext = child.extent_i64();
                let offs: Vec<(i64, u64)> =
                    blocks.iter().map(|&(bl, d)| cmul(d, ext).map(|o| (o, bl))).collect::<Result<_>>()?;
                Self::build_blocky(&kind, &offs, child)?
            }
            Kind::Hindexed { blocks, child } => {
                let offs: Vec<(i64, u64)> = blocks.iter().map(|&(bl, d)| (d, bl)).collect();
                Self::build_blocky(&kind, &offs, child)?
            }
            Kind::IndexedBlock { blocklen, displacements, child } => {
                let ext = child.extent_i64();
                let offs: Vec<(i64, u64)> = displacements
                    .iter()
                    .map(|&d| cmul(d, ext).map(|o| (o, *blocklen)))
                    .collect::<Result<_>>()?;
                Self::build_blocky(&kind, &offs, child)?
            }
            Kind::Struct { fields } => Self::build_struct(&kind, fields)?,
            Kind::Subarray { sizes, subsizes, starts, order, child } => {
                Self::build_subarray(&kind, sizes, subsizes, starts, *order, child)?
            }
            Kind::Resized { lb, extent, child } => {
                let ub = cadd(*lb, i64::try_from(*extent).map_err(|_| DatatypeError::Overflow)?)?;
                TypeNode {
                    size: child.size(),
                    lb: *lb,
                    ub,
                    true_lb: child.true_lb(),
                    true_ub: child.true_ub(),
                    align: child.align(),
                    dense: child.node.dense,
                    seg_hint: child.node.seg_hint,
                    sig: child.node.sig.clone(),
                    committed: AtomicBool::new(false),
                    flattened: OnceLock::new(),
                    depth: child.node.depth + 1,
                    uid: next_uid(),
                    norm: OnceLock::new(),
                    kind: kind.clone(),
                }
            }
        };
        Ok(Datatype { node: Arc::new(node) })
    }

    /// The walk for the indexed kinds, whose description is a block list:
    /// `offsets` holds `(byte_offset_of_block, blocklen)` pairs in typemap
    /// order; within a block, child instances tile by the child extent.
    fn build_blocky(kind: &Kind, offsets: &[(i64, u64)], child: &Datatype) -> Result<TypeNode> {
        let ext = tiling_extent(child)?;
        let mut total: u64 = 0;
        let mut bounds = Bounds::new();
        let mut tracker = DenseTracker::new();
        for &(off, bl) in offsets {
            if bl == 0 {
                continue;
            }
            total = total.checked_add(bl).ok_or(DatatypeError::Overflow)?;
            let p = Piece::of(&child.node, ext, off, bl)?;
            bounds.include(&p);
            tracker.feed(p.run, p.segs);
        }
        Self::blocky_node(kind, child, total, bounds, &tracker)
    }

    /// The closed form of [`Self::build_blocky`] for `count` blocks of `bl`
    /// children at byte offsets `j * sb`: contiguous, vector and hvector
    /// build in O(1), whatever the count.
    ///
    /// Offsets are linear in `j`, so blocks `0` and `count - 1` carry the
    /// extremes of every bound and every overflow check of the walk, and
    /// blocks `0` and `1` decide whether all blocks chain.
    fn build_strided(kind: &Kind, count: u64, bl: u64, sb: i64, child: &Datatype) -> Result<TypeNode> {
        let last = match count.checked_sub(1) {
            Some(j) => block_offset(j, sb)?,
            None => 0,
        };
        let ext = tiling_extent(child)?;
        let c = &child.node;
        let mut bounds = Bounds::new();
        let mut tracker = DenseTracker::new();
        let total = if count == 0 || bl == 0 {
            0
        } else {
            let first = Piece::of(c, ext, 0, bl)?;
            bounds.include(&first);
            bounds.include(&Piece::of(c, ext, last, bl)?);
            tracker.feed(first.run, first.segs);
            if count > 1 {
                let second = Piece::of(c, ext, block_offset(1, sb)?, bl)?;
                tracker.feed(second.run, second.segs);
                tracker.feed_repeats(second.run, second.segs, count - 2);
            }
            cmulu(count, bl)?
        };
        Self::blocky_node(kind, child, total, bounds, &tracker)
    }

    /// The node of `total` child instances with the given bounds and runs.
    fn blocky_node(
        kind: &Kind,
        child: &Datatype,
        total: u64,
        bounds: Bounds,
        tracker: &DenseTracker,
    ) -> Result<TypeNode> {
        let c = &child.node;
        let Bounds { lb, ub, tlb, tub, .. } = bounds;
        Ok(TypeNode {
            size: cmulu(total, c.size)?,
            lb,
            ub,
            true_lb: tlb,
            true_ub: tub,
            align: c.align,
            dense: tracker.dense_block(),
            seg_hint: tracker.seg_count(),
            sig: c.sig.scaled(total)?,
            committed: AtomicBool::new(false),
            flattened: OnceLock::new(),
            depth: c.depth + 1,
            uid: next_uid(),
            norm: OnceLock::new(),
            kind: kind.clone(),
        })
    }

    fn build_struct(kind: &Kind, fields: &[StructField]) -> Result<TypeNode> {
        let mut size: u64 = 0;
        let mut bounds = Bounds::new();
        let mut tracker = DenseTracker::new();
        let mut align = 1usize;
        let mut sig = Signature::empty();
        let mut depth = 0u32;

        for f in fields {
            let c = &f.datatype.node;
            depth = depth.max(c.depth);
            if f.blocklen == 0 {
                continue;
            }
            let ext = tiling_extent(&f.datatype)?;
            align = align.max(c.align);
            size = size
                .checked_add(cmulu(f.blocklen, c.size)?)
                .ok_or(DatatypeError::Overflow)?;
            sig = sig.plus(&c.sig.scaled(f.blocklen)?)?;
            let p = Piece::of(c, ext, f.displacement, f.blocklen)?;
            bounds.include(&p);
            tracker.feed(p.run, p.segs);
        }

        let Bounds { lb, mut ub, tlb, tub, .. } = bounds;
        // MPI epsilon rule: pad the extent so arrays of this struct keep
        // every field naturally aligned, exactly as a C compiler would.
        let raw_extent = (ub - lb) as u64;
        let a = align as u64;
        let padded = raw_extent.div_ceil(a) * a;
        ub = cadd(lb, i64::try_from(padded).map_err(|_| DatatypeError::Overflow)?)?;

        Ok(TypeNode {
            size,
            lb,
            ub,
            true_lb: tlb,
            true_ub: tub,
            align,
            // Padding means an array of structs is never byte-dense unless
            // the padding is zero and the body is dense.
            dense: tracker.dense_block().filter(|_| padded == raw_extent || size == 0),
            seg_hint: tracker.seg_count(),
            sig,
            committed: AtomicBool::new(false),
            flattened: OnceLock::new(),
            depth: depth + 1,
            uid: next_uid(),
            norm: OnceLock::new(),
            kind: kind.clone(),
        })
    }

    fn build_subarray(
        kind: &Kind,
        sizes: &[u64],
        subsizes: &[u64],
        starts: &[u64],
        order: ArrayOrder,
        child: &Datatype,
    ) -> Result<TypeNode> {
        let ext = tiling_extent(child)?;
        let c = &child.node;
        let ndims = sizes.len();

        // Element strides per dimension, in child-extent units.
        let mut stride = vec![1u64; ndims];
        match order {
            ArrayOrder::C => {
                for d in (0..ndims.saturating_sub(1)).rev() {
                    stride[d] = cmulu(stride[d + 1], sizes[d + 1])?;
                }
            }
            ArrayOrder::Fortran => {
                for d in 1..ndims {
                    stride[d] = cmulu(stride[d - 1], sizes[d - 1])?;
                }
            }
        }

        let full_elems = sizes.iter().try_fold(1u64, |a, &s| cmulu(a, s))?;
        let sel_elems = subsizes.iter().try_fold(1u64, |a, &s| cmulu(a, s))?;
        let size = cmulu(sel_elems, c.size)?;

        // Subarray extent always covers the whole array (MPI semantics).
        let ub = cmul(full_elems as i64, ext)?;

        // Dimensions ordered from outermost to innermost memory stride.
        let dims_by_locality: Vec<usize> = match order {
            ArrayOrder::C => (0..ndims).collect(),
            ArrayOrder::Fortran => (0..ndims).rev().collect(),
        };

        // The innermost run: trailing (in memory order) dims selected fully,
        // then one partially-selected dim extends the run.
        let mut run_elems = 1u64;
        let mut outer_runs = 1u64;
        let mut still_inner = true;
        for &d in dims_by_locality.iter().rev() {
            if still_inner {
                if subsizes[d] == sizes[d] {
                    run_elems = cmulu(run_elems, sizes[d])?;
                    continue;
                }
                run_elems = cmulu(run_elems, subsizes[d])?;
                still_inner = false;
            } else {
                outer_runs = cmulu(outer_runs, subsizes[d])?;
            }
        }

        // First and last selected element offsets (element units).
        let mut first = 0i64;
        let mut last = 0i64;
        for d in 0..ndims {
            first = cadd(first, cmul(starts[d] as i64, stride[d] as i64)?)?;
            last = cadd(
                last,
                cmul((starts[d] + subsizes[d].saturating_sub(1)) as i64, stride[d] as i64)?,
            )?;
        }
        let empty = sel_elems == 0 || c.size == 0;
        let first_byte = if empty { 0 } else { cmul(first, ext)? };
        let (true_lb, true_ub) = if empty {
            (0, 0)
        } else {
            (cadd(first_byte, c.true_lb)?, cadd(cmul(last, ext)?, c.true_ub)?)
        };

        let child_tiles = c.dense.filter(|b| ext == b.len as i64 && c.size > 0);
        let dense = if empty {
            Some(Block { offset: 0, len: 0 })
        } else if outer_runs == 1 {
            match child_tiles {
                Some(b) => Some(Block {
                    offset: cadd(first_byte, b.offset)?,
                    len: cmulu(b.len, run_elems)?,
                }),
                None => None,
            }
        } else {
            None
        };
        let seg_hint = if sel_elems == 0 || c.size == 0 {
            0
        } else if child_tiles.is_some() {
            outer_runs
        } else {
            cmulu(sel_elems, c.seg_hint)?
        };

        Ok(TypeNode {
            size,
            lb: 0,
            ub,
            true_lb,
            true_ub,
            align: c.align,
            dense,
            seg_hint: seg_hint.max(if size > 0 { 1 } else { 0 }),
            sig: c.sig.scaled(sel_elems)?,
            committed: AtomicBool::new(false),
            flattened: OnceLock::new(),
            depth: c.depth + 1,
            uid: next_uid(),
            norm: OnceLock::new(),
            kind: kind.clone(),
        })
    }
}

impl Datatype {
    /// Above this many segments per instance, commit does not materialize a
    /// flattened representation and pack/unpack stream segments instead.
    pub const FLATTEN_CAP: u64 = 1 << 16;

    /// Total payload bytes in one instance (sum of primitive sizes).
    #[inline]
    pub fn size(&self) -> u64 {
        self.node.size
    }

    /// Lower bound of the typemap in bytes (may be negative).
    #[inline]
    pub fn lb(&self) -> i64 {
        self.node.lb
    }

    /// Upper bound of the typemap in bytes (includes struct padding).
    #[inline]
    pub fn ub(&self) -> i64 {
        self.node.ub
    }

    /// Extent: the stride at which consecutive instances tile.
    #[inline]
    pub fn extent(&self) -> u64 {
        (self.node.ub - self.node.lb) as u64
    }

    #[inline]
    pub(crate) fn extent_i64(&self) -> i64 {
        self.node.ub - self.node.lb
    }

    /// Lowest byte actually touched by data.
    #[inline]
    pub fn true_lb(&self) -> i64 {
        self.node.true_lb
    }

    /// One past the highest byte actually touched by data.
    #[inline]
    pub fn true_ub(&self) -> i64 {
        self.node.true_ub
    }

    /// Extent of the data actually touched.
    #[inline]
    pub fn true_extent(&self) -> u64 {
        (self.node.true_ub - self.node.true_lb) as u64
    }

    /// Natural alignment (max leaf alignment).
    #[inline]
    pub fn align(&self) -> usize {
        self.node.align
    }

    /// Whether one instance is a single dense run of bytes in typemap order.
    #[inline]
    pub fn is_dense(&self) -> bool {
        self.node.dense.is_some()
    }

    /// The dense run, if [`Self::is_dense`].
    #[inline]
    pub fn dense_block(&self) -> Option<Block> {
        self.node.dense
    }

    /// Whether `count` instances of this type pack as one memcpy: the type
    /// is dense *and* instances tile without gaps.
    pub fn is_contiguous_run(&self, count: u64) -> bool {
        match self.node.dense {
            Some(b) => count <= 1 || (b.len as i64 == self.extent_i64()),
            None => false,
        }
    }

    /// Upper bound on coalesced segments per instance.
    #[inline]
    pub fn seg_count_hint(&self) -> u64 {
        self.node.seg_hint
    }

    /// The multiset-of-primitives signature.
    #[inline]
    pub fn signature(&self) -> &Signature {
        &self.node.sig
    }

    /// Depth of the type tree.
    #[inline]
    pub fn depth(&self) -> u32 {
        self.node.depth
    }

    /// The defining kind of the root node.
    #[inline]
    pub fn kind(&self) -> &Kind {
        &self.node.kind
    }

    /// Whether [`Self::commit`] has been called (primitives are born
    /// committed).
    #[inline]
    pub fn is_committed(&self) -> bool {
        self.node.committed.load(Ordering::Acquire)
    }

    /// Marks the type ready for communication and precomputes the flattened
    /// segment list when it is small enough to be worth materializing.
    ///
    /// Returns `self` for chaining, mirroring the common
    /// `MPI_Type_commit(&t)` usage.
    pub fn commit(self) -> Self {
        self.node.flattened.get_or_init(|| {
            if self.node.seg_hint <= Self::FLATTEN_CAP {
                Some(crate::segiter::SegIter::new(&self, 1).collect::<Vec<_>>().into())
            } else {
                None
            }
        });
        self.node.committed.store(true, Ordering::Release);
        self
    }

    /// Errors unless the type is committed.
    pub fn require_committed(&self) -> Result<()> {
        if self.is_committed() {
            Ok(())
        } else {
            Err(DatatypeError::NotCommitted)
        }
    }

    /// The flattened segment list, if the type was committed and small.
    pub fn flattened(&self) -> Option<&Arc<[Block]>> {
        self.node.flattened.get().and_then(|o| o.as_ref())
    }

    /// Structural pointer equality (same node).
    pub fn same_type(&self, other: &Datatype) -> bool {
        Arc::ptr_eq(&self.node, &other.node)
    }

    /// Process-unique id of the root node. Clones of the same handle share
    /// an id; structurally equal but separately built types do not. Keys
    /// the compiled pack-plan cache.
    #[inline]
    pub fn type_id(&self) -> u64 {
        self.node.uid
    }
}

#[cfg(test)]
mod tests {
    use crate::Datatype;
    use crate::primitive::Primitive;

    #[test]
    fn primitive_properties() {
        let d = Datatype::primitive(Primitive::Float64);
        assert_eq!(d.size(), 8);
        assert_eq!(d.extent(), 8);
        assert_eq!(d.lb(), 0);
        assert!(d.is_dense());
        assert!(d.is_committed());
        assert_eq!(d.seg_count_hint(), 1);
        assert_eq!(d.depth(), 1);
    }

    #[test]
    fn contiguous_is_dense() {
        let d = Datatype::contiguous(10, &Datatype::f64()).unwrap();
        assert_eq!(d.size(), 80);
        assert_eq!(d.extent(), 80);
        assert!(d.is_dense());
        assert_eq!(d.seg_count_hint(), 1);
    }

    #[test]
    fn vector_every_other_element() {
        // The paper's workload: N elements at stride 2.
        let d = Datatype::vector(100, 1, 2, &Datatype::f64()).unwrap();
        assert_eq!(d.size(), 800);
        // lb 0; last block starts at 99*16, spans 8.
        assert_eq!(d.lb(), 0);
        assert_eq!(d.ub(), 99 * 16 + 8);
        assert_eq!(d.extent(), 99 * 16 + 8);
        assert!(!d.is_dense());
        assert_eq!(d.seg_count_hint(), 100);
    }

    #[test]
    fn vector_with_stride_equal_blocklen_is_dense() {
        let d = Datatype::vector(10, 4, 4, &Datatype::f64()).unwrap();
        assert!(d.is_dense());
        assert_eq!(d.seg_count_hint(), 1);
        assert_eq!(d.size(), d.extent());
    }

    #[test]
    fn negative_stride_bounds() {
        let d = Datatype::vector(3, 1, -2, &Datatype::f64()).unwrap();
        // blocks at 0, -16, -32
        assert_eq!(d.lb(), -32);
        assert_eq!(d.ub(), 8);
        assert_eq!(d.size(), 24);
    }

    #[test]
    fn zero_count_vector_is_empty() {
        let d = Datatype::vector(0, 1, 2, &Datatype::f64()).unwrap();
        assert_eq!(d.size(), 0);
        assert_eq!(d.extent(), 0);
        assert!(d.is_dense());
        assert_eq!(d.seg_count_hint(), 0);
    }

    #[test]
    fn struct_padding_follows_alignment() {
        // i32 at 0, f64 at 4 -> raw extent 12, padded to 16 (align 8).
        let d = Datatype::structure(&[
            (1, 0, Datatype::i32()),
            (1, 4, Datatype::f64()),
        ])
        .unwrap();
        assert_eq!(d.size(), 12);
        assert_eq!(d.extent(), 16);
        assert_eq!(d.true_extent(), 12);
        assert_eq!(d.align(), 8);
    }

    #[test]
    fn resized_overrides_bounds() {
        let base = Datatype::f64();
        let d = Datatype::resized(&base, -8, 32).unwrap();
        assert_eq!(d.lb(), -8);
        assert_eq!(d.ub(), 24);
        assert_eq!(d.extent(), 32);
        assert_eq!(d.true_lb(), 0);
        assert_eq!(d.true_ub(), 8);
        assert_eq!(d.size(), 8);
    }

    #[test]
    fn subarray_extent_covers_full_array() {
        // 4x6 array of f64, select 4x3 starting at column 0.
        let d = Datatype::subarray(&[4, 6], &[4, 3], &[0, 0], crate::ArrayOrder::C, &Datatype::f64())
            .unwrap();
        assert_eq!(d.size(), 12 * 8);
        assert_eq!(d.extent(), 24 * 8);
        assert_eq!(d.lb(), 0);
        assert!(!d.is_dense());
        assert_eq!(d.seg_count_hint(), 4); // one run per row
    }

    #[test]
    fn subarray_full_selection_is_dense() {
        let d = Datatype::subarray(&[4, 6], &[4, 6], &[0, 0], crate::ArrayOrder::C, &Datatype::f64())
            .unwrap();
        assert!(d.is_dense());
        assert_eq!(d.seg_count_hint(), 1);
    }

    #[test]
    fn fortran_order_flips_contiguity() {
        // Selecting a full first dimension is contiguous in Fortran order.
        let d = Datatype::subarray(&[6, 4], &[6, 1], &[0, 2], crate::ArrayOrder::Fortran, &Datatype::f64())
            .unwrap();
        assert!(d.is_dense());
        let b = d.dense_block().unwrap();
        assert_eq!(b.offset, 2 * 6 * 8);
        assert_eq!(b.len, 48);
    }

    #[test]
    fn signature_scales_through_nesting() {
        let v = Datatype::vector(10, 2, 3, &Datatype::f64()).unwrap();
        let c = Datatype::contiguous(5, &v).unwrap();
        assert_eq!(c.signature().count(Primitive::Float64), 100);
        assert_eq!(c.size(), 800);
    }

    #[test]
    fn commit_flattens_small_types() {
        let d = Datatype::vector(8, 1, 2, &Datatype::f64()).unwrap().commit();
        let f = d.flattened().expect("should flatten");
        assert_eq!(f.len(), 8);
        assert_eq!(f[0].offset, 0);
        assert_eq!(f[1].offset, 16);
    }

    #[test]
    fn huge_types_do_not_materialize() {
        let d = Datatype::vector(1 << 20, 1, 2, &Datatype::f64()).unwrap().commit();
        assert!(d.flattened().is_none());
        assert!(d.is_committed());
    }

    #[test]
    fn uncommitted_flagged() {
        let d = Datatype::vector(4, 1, 2, &Datatype::f64()).unwrap();
        assert!(!d.is_committed());
        assert!(d.require_committed().is_err());
        let d = d.commit();
        assert!(d.require_committed().is_ok());
    }

    #[test]
    fn indexed_bounds_and_size() {
        let d = Datatype::indexed(&[(2, 0), (3, 10), (1, 20)], &Datatype::i32()).unwrap();
        assert_eq!(d.size(), 6 * 4);
        assert_eq!(d.lb(), 0);
        assert_eq!(d.ub(), 21 * 4);
        assert_eq!(d.seg_count_hint(), 3);
    }

    #[test]
    fn indexed_adjacent_blocks_coalesce_in_hint() {
        // blocks (2,0) and (3,2) are adjacent -> one dense run
        let d = Datatype::indexed(&[(2, 0), (3, 2)], &Datatype::i32()).unwrap();
        assert!(d.is_dense());
        assert_eq!(d.seg_count_hint(), 1);
    }
}
