//! The Dual-Tree Complex Wavelet Transform.
//!
//! Kingsbury's DT-CWT runs four parallel separable DWTs — every combination
//! of two filter *trees* along rows and columns — and combines their detail
//! bands into complex coefficients with six orientation-selective subbands
//! per level (±15°, ±45°, ±75°). Tree B of level 1 is the same bank as tree
//! A sampled at the opposite polyphase; trees at levels ≥ 2 use the
//! quarter-shift bank and its time reverse. Because each of the four
//! constituent transforms is perfectly reconstructing on its own, the
//! dual-tree inverse (average of the four per-tree inverses) is exact too.
//!
//! The redundancy (4:1) buys the two properties the fusion literature cares
//! about: approximate shift invariance and directional selectivity that
//! distinguishes +45° from −45° (a plain DWT cannot).

use std::sync::Arc;

use crate::dwt1d::{BankTaps, Phase};
use crate::dwt2d::{analyze_level_into, synthesize_level_into, AxisSpec, Dwt2d, Subbands};
use crate::filters::FilterBank;
use crate::image::{ComplexImage, Image};
use crate::kernel::{FilterKernel, ScalarKernel};
use crate::scratch::{ComboSlot, ComboStore, Scratch};
use crate::workers::{Job, JobOutcome, JobPayload, WorkerPool};
use crate::DtcwtError;

/// The six orientation-selective subbands of each DT-CWT level.
///
/// Angles follow Kingsbury's convention: positive angles rotate
/// counter-clockwise from the horizontal axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Orientation {
    /// +15° (near-horizontal features).
    Pos15,
    /// +45° (diagonal features).
    Pos45,
    /// +75° (near-vertical features).
    Pos75,
    /// −75°.
    Neg75,
    /// −45° (anti-diagonal features).
    Neg45,
    /// −15°.
    Neg15,
}

impl Orientation {
    /// All six orientations in subband-index order.
    pub const ALL: [Orientation; 6] = [
        Orientation::Pos15,
        Orientation::Pos45,
        Orientation::Pos75,
        Orientation::Neg75,
        Orientation::Neg45,
        Orientation::Neg15,
    ];

    /// Subband index (0..6) of this orientation.
    pub fn index(self) -> usize {
        Orientation::ALL
            .iter()
            .position(|&o| o == self)
            .expect("orientation present in ALL")
    }

    /// Nominal orientation angle in degrees.
    pub fn angle_degrees(self) -> f64 {
        match self {
            Orientation::Pos15 => 15.0,
            Orientation::Pos45 => 45.0,
            Orientation::Pos75 => 75.0,
            Orientation::Neg75 => -75.0,
            Orientation::Neg45 => -45.0,
            Orientation::Neg15 => -15.0,
        }
    }
}

impl std::fmt::Display for Orientation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:+}deg", self.angle_degrees())
    }
}

/// A multi-level DT-CWT pyramid: six complex subbands per level plus the
/// four per-tree lowpass residuals.
#[derive(Debug, Clone)]
pub struct CwtPyramid {
    /// `subbands[level][orientation]`.
    subbands: Vec<[ComplexImage; 6]>,
    /// Lowpass residual of each tree combination, indexed
    /// `row_tree * 2 + col_tree` (A = 0, B = 1).
    lowpass: [Image; 4],
    /// Input dimensions entering each level, pre-padding.
    pre_pad_dims: Vec<(usize, usize)>,
}

impl CwtPyramid {
    /// Creates a zero-level placeholder pyramid with no allocation, for use
    /// as a reusable output slot of [`Dtcwt::forward_into`].
    pub fn empty() -> Self {
        CwtPyramid {
            subbands: Vec::new(),
            lowpass: std::array::from_fn(|_| Image::zeros(0, 0)),
            pre_pad_dims: Vec::new(),
        }
    }

    /// Reshapes this pyramid to the level structure and subband dimensions
    /// of `template`, reusing existing allocations. Pixel contents are
    /// zeroed; callers are expected to overwrite them.
    pub fn reshape_like(&mut self, template: &CwtPyramid) {
        self.pre_pad_dims.clear();
        self.pre_pad_dims.extend_from_slice(&template.pre_pad_dims);
        while self.subbands.len() < template.subbands.len() {
            self.subbands
                .push(std::array::from_fn(|_| ComplexImage::zeros(0, 0)));
        }
        self.subbands.truncate(template.subbands.len());
        for (mine, theirs) in self.subbands.iter_mut().zip(&template.subbands) {
            for (m, t) in mine.iter_mut().zip(theirs) {
                let (w, h) = t.dims();
                m.reshape(w, h);
            }
        }
        for (m, t) in self.lowpass.iter_mut().zip(&template.lowpass) {
            let (w, h) = t.dims();
            m.reshape(w, h);
        }
    }

    /// Number of decomposition levels.
    pub fn levels(&self) -> usize {
        self.subbands.len()
    }

    /// The six oriented complex subbands of `level` (0 = finest), indexed by
    /// [`Orientation::index`].
    ///
    /// # Panics
    ///
    /// Panics if `level >= levels()`.
    pub fn subbands(&self, level: usize) -> &[ComplexImage; 6] {
        &self.subbands[level]
    }

    /// Mutable access to the oriented subbands of `level` (for fusion rules).
    ///
    /// # Panics
    ///
    /// Panics if `level >= levels()`.
    pub fn subbands_mut(&mut self, level: usize) -> &mut [ComplexImage; 6] {
        &mut self.subbands[level]
    }

    /// One oriented subband.
    ///
    /// # Panics
    ///
    /// Panics if `level >= levels()`.
    pub fn subband(&self, level: usize, orientation: Orientation) -> &ComplexImage {
        &self.subbands[level][orientation.index()]
    }

    /// The four per-tree lowpass residual images.
    pub fn lowpass(&self) -> &[Image; 4] {
        &self.lowpass
    }

    /// Mutable lowpass residuals (for fusion rules).
    pub fn lowpass_mut(&mut self) -> &mut [Image; 4] {
        &mut self.lowpass
    }

    /// Original input dimensions.
    pub fn input_dims(&self) -> (usize, usize) {
        self.pre_pad_dims[0]
    }

    /// Total coefficient energy of one level's oriented subbands.
    pub fn level_energy(&self, level: usize) -> f64 {
        self.subbands[level].iter().map(|c| c.energy()).sum()
    }
}

/// Tree selector along one axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tree {
    A,
    B,
}

const COMBOS: [(Tree, Tree); 4] = [
    (Tree::A, Tree::A),
    (Tree::A, Tree::B),
    (Tree::B, Tree::A),
    (Tree::B, Tree::B),
];

/// The Dual-Tree Complex Wavelet Transform.
///
/// # Examples
///
/// ```
/// use wavefuse_dtcwt::{Dtcwt, Image, Orientation};
///
/// let img = Image::from_fn(64, 48, |x, y| ((x + 2 * y) % 9) as f32);
/// let t = Dtcwt::new(3)?;
/// let pyr = t.forward(&img)?;
/// let mag = pyr.subband(0, Orientation::Pos45).magnitude();
/// assert_eq!(mag.dims(), (32, 24));
/// let back = t.inverse(&pyr)?;
/// assert!(back.max_abs_diff(&img) < 1e-3);
/// # Ok::<(), wavefuse_dtcwt::DtcwtError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Dtcwt {
    level1_taps: BankTaps,
    qshift_fwd_taps: BankTaps,
    qshift_rev_taps: BankTaps,
    levels: usize,
}

impl Dtcwt {
    /// Creates a DT-CWT with the standard banks: `near_sym_b` (13,19) at
    /// level 1 and `qshift_b` (14-tap) at levels ≥ 2.
    ///
    /// # Errors
    ///
    /// Returns [`DtcwtError::BadLevels`] if `levels == 0`, or a filter
    /// construction error (which for the built-in banks cannot occur).
    pub fn new(levels: usize) -> Result<Self, DtcwtError> {
        Dtcwt::with_banks(FilterBank::near_sym_b()?, FilterBank::qshift_b()?, levels)
    }

    /// Creates a DT-CWT with explicit level-1 and quarter-shift banks.
    ///
    /// # Errors
    ///
    /// Returns [`DtcwtError::BadLevels`] if `levels == 0`.
    pub fn with_banks(
        level1: FilterBank,
        qshift: FilterBank,
        levels: usize,
    ) -> Result<Self, DtcwtError> {
        if levels == 0 {
            return Err(DtcwtError::BadLevels {
                requested: 0,
                max_supported: usize::MAX,
            });
        }
        let level1_taps = BankTaps::new(&level1);
        let qshift_fwd_taps = BankTaps::new(&qshift);
        let qshift_rev_taps = BankTaps::new(&qshift.time_reverse());
        Ok(Dtcwt {
            level1_taps,
            qshift_fwd_taps,
            qshift_rev_taps,
            levels,
        })
    }

    /// Number of decomposition levels.
    pub fn levels(&self) -> usize {
        self.levels
    }

    fn axis_spec(&self, level: usize, tree: Tree) -> AxisSpec<'_> {
        if level == 0 {
            AxisSpec {
                taps: &self.level1_taps,
                phase: match tree {
                    Tree::A => Phase::A,
                    Tree::B => Phase::B,
                },
            }
        } else {
            // Tree B's level-1 samples sit one input sample later than tree
            // A's, so to keep the cumulative tree delay difference at half an
            // output sample per level, tree A takes the *time-reversed*
            // quarter-shift bank (group delay L/2 + 1/4) and tree B the
            // original (L/2 - 1/4). With the opposite assignment the offsets
            // cancel and orientation selectivity collapses.
            AxisSpec {
                taps: match tree {
                    Tree::A => &self.qshift_rev_taps,
                    Tree::B => &self.qshift_fwd_taps,
                },
                phase: Phase::A,
            }
        }
    }

    /// Forward transform with the default scalar kernel.
    ///
    /// # Errors
    ///
    /// See [`Dtcwt::forward_with`].
    pub fn forward(&self, img: &Image) -> Result<CwtPyramid, DtcwtError> {
        self.forward_with(&mut ScalarKernel::new(), img)
    }

    /// Forward transform through a caller-supplied kernel: a thin wrapper
    /// over [`Dtcwt::forward_into`] with fresh staging buffers.
    ///
    /// # Errors
    ///
    /// Returns [`DtcwtError::BadLevels`] if the image cannot support the
    /// configured depth, and [`DtcwtError::BadDimensions`] for empty images.
    pub fn forward_with(
        &self,
        kernel: &mut dyn FilterKernel,
        img: &Image,
    ) -> Result<CwtPyramid, DtcwtError> {
        let mut out = CwtPyramid::empty();
        self.forward_into(
            kernel,
            img,
            &mut ComboStore::new(),
            &mut Scratch::new(),
            &mut out,
        )?;
        Ok(out)
    }

    /// Allocation-free forward transform: writes the pyramid into `out`,
    /// staging per-combo results in `combos` and intermediates in `scratch`.
    /// After a warm-up call of the same geometry it performs zero heap
    /// allocation; the result does not depend on what the buffers held.
    ///
    /// # Errors
    ///
    /// Same as [`Dtcwt::forward_with`].
    pub fn forward_into(
        &self,
        kernel: &mut dyn FilterKernel,
        img: &Image,
        combos: &mut ComboStore,
        scratch: &mut Scratch,
        out: &mut CwtPyramid,
    ) -> Result<(), DtcwtError> {
        self.check_levels(img)?;
        for ci in 0..COMBOS.len() {
            let slot = &mut combos.slots[ci];
            self.analyze_combo_into(kernel, img, ci, &mut slot.detail, &mut slot.ll, scratch)?;
        }
        self.assemble_pyramid_into(img.dims(), combos, out);
        Ok(())
    }

    /// Forward transforms of **two** images dispatched onto the pool as one
    /// eight-job batch, so both streams' tree combinations fill every worker
    /// concurrently (the visible/thermal forwards of a fusion frame are data
    /// independent — running them serially leaves half the pool idle).
    ///
    /// This is host-side parallelism: the modeled platform timing is
    /// unaffected. `kernel` selects the workers' kernel slot. Buffers
    /// ping-pong through the combo stores and `outcomes`, so steady-state
    /// dispatch is allocation-free, and results are bit-identical to two
    /// serial [`Dtcwt::forward_into`] calls at any thread count.
    ///
    /// # Errors
    ///
    /// Same as [`Dtcwt::forward_with`], plus [`DtcwtError::MalformedPyramid`]
    /// if a worker lacks the requested kernel slot; if both images fail, the
    /// error of the earliest-submitted failing job (image `a` first) is
    /// returned.
    #[allow(clippy::too_many_arguments)]
    pub fn forward_pooled_pair(
        self: &Arc<Self>,
        pool: &WorkerPool,
        kernel: usize,
        img_a: &Arc<Image>,
        combos_a: &mut ComboStore,
        out_a: &mut CwtPyramid,
        img_b: &Arc<Image>,
        combos_b: &mut ComboStore,
        out_b: &mut CwtPyramid,
        outcomes: &mut Vec<JobOutcome>,
    ) -> Result<(), DtcwtError> {
        self.forward_pooled_pair_submit(pool, kernel, img_a, combos_a, img_b, combos_b)?;
        self.forward_pooled_pair_collect(
            pool,
            img_a.dims(),
            combos_a,
            out_a,
            combos_b,
            out_b,
            outcomes,
        )
    }

    /// Submit half of [`Dtcwt::forward_pooled_pair`]: stages both images'
    /// eight tree-combination jobs into the pool **without draining**, so a
    /// caller multiplexing several streams over one pool can pack many
    /// frames' forwards into the ring before harvesting any of them.
    ///
    /// Pair with [`Dtcwt::forward_pooled_pair_collect`], calling collects in
    /// the same order as submits (the pool harvests oldest-first).
    ///
    /// # Errors
    ///
    /// Same as [`Dtcwt::forward_pooled_pair`] for geometry checks; worker
    /// errors surface at collect time.
    pub fn forward_pooled_pair_submit(
        self: &Arc<Self>,
        pool: &WorkerPool,
        kernel: usize,
        img_a: &Arc<Image>,
        combos_a: &mut ComboStore,
        img_b: &Arc<Image>,
        combos_b: &mut ComboStore,
    ) -> Result<(), DtcwtError> {
        self.check_levels(img_a)?;
        self.check_levels(img_b)?;
        for (tag, (img, combos)) in [(img_a, &mut *combos_a), (img_b, &mut *combos_b)]
            .into_iter()
            .enumerate()
        {
            for (ci, slot) in combos.slots.iter_mut().enumerate() {
                pool.submit(Job::ForwardCombo {
                    transform: Arc::clone(self),
                    img: Arc::clone(img),
                    tag: tag as u32,
                    combo: ci,
                    kernel,
                    detail: std::mem::take(&mut slot.detail),
                    ll: std::mem::take(&mut slot.ll),
                });
            }
        }
        Ok(())
    }

    /// Collect half of [`Dtcwt::forward_pooled_pair`]: harvests the
    /// **oldest** `2 * COMBOS` outcomes from the pool (which must be this
    /// pair's forward jobs — collects must run in submit order), places them
    /// by tag, and assembles both pyramids. Later jobs from other frames or
    /// streams stay in flight. Both images of a fusion pair share `dims`.
    ///
    /// # Errors
    ///
    /// Same as [`Dtcwt::forward_pooled_pair`]; if both images fail, the error
    /// of the earliest-submitted failing job (image `a` first) is returned.
    #[allow(clippy::too_many_arguments)]
    pub fn forward_pooled_pair_collect(
        self: &Arc<Self>,
        pool: &WorkerPool,
        dims: (usize, usize),
        combos_a: &mut ComboStore,
        out_a: &mut CwtPyramid,
        combos_b: &mut ComboStore,
        out_b: &mut CwtPyramid,
        outcomes: &mut Vec<JobOutcome>,
    ) -> Result<(), DtcwtError> {
        outcomes.clear();
        pool.drain_partial(2 * COMBOS.len(), outcomes);
        // Outcomes arrive in submission order (tag-major), so the first
        // error seen while placing is the deterministic one to report.
        let mut first_err = None;
        for oc in outcomes.drain(..) {
            let combos = if oc.tag == 0 {
                &mut *combos_a
            } else {
                &mut *combos_b
            };
            if first_err.is_none() {
                if let Some(e) = oc.error {
                    first_err = Some(e);
                }
            }
            if let JobPayload::Forward { detail, ll } = oc.payload {
                combos.slots[oc.combo] = ComboSlot { detail, ll };
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        self.assemble_pyramid_into(dims, combos_a, out_a);
        self.assemble_pyramid_into(dims, combos_b, out_b);
        Ok(())
    }

    fn check_levels(&self, img: &Image) -> Result<(), DtcwtError> {
        let (w, h) = img.dims();
        let max = Dwt2d::max_levels(w, h);
        if self.levels > max {
            return Err(DtcwtError::BadLevels {
                requested: self.levels,
                max_supported: max,
            });
        }
        Ok(())
    }

    /// Runs the full multi-level analysis of tree combination `ci` (0..4):
    /// writes the per-level detail into `detail` and the lowpass residual
    /// into `ll`, ping-ponging level images through `scratch`.
    pub(crate) fn analyze_combo_into(
        &self,
        kernel: &mut dyn FilterKernel,
        img: &Image,
        ci: usize,
        detail: &mut Vec<Subbands>,
        ll: &mut Image,
        scratch: &mut Scratch,
    ) -> Result<(), DtcwtError> {
        let (rt, ct) = COMBOS[ci];
        // `Subbands::empty()` holds no pixels, so growing the vector only
        // allocates on the very first frame.
        while detail.len() < self.levels {
            detail.push(Subbands::empty());
        }
        detail.truncate(self.levels);
        scratch.cur.copy_from(img);
        for (level, det) in detail.iter_mut().enumerate() {
            let rows = self.axis_spec(level, rt);
            let cols = self.axis_spec(level, ct);
            let Scratch {
                s1,
                s2,
                cur,
                next,
                padded,
                ..
            } = scratch;
            let (w, h) = cur.dims();
            let src: &Image = if w % 2 == 0 && h % 2 == 0 {
                cur
            } else {
                cur.pad_to_even_into(padded);
                padded
            };
            analyze_level_into(kernel, &rows, &cols, src, next, det, s2, s1)?;
            std::mem::swap(cur, next);
        }
        ll.copy_from(&scratch.cur);
        Ok(())
    }

    /// Combines the four combo slots into `out`, reusing all of its buffers.
    /// This is the q2c glue step: it runs on the dispatcher after each pooled
    /// forward pair, and per frame in [`Dtcwt::forward_into`].
    fn assemble_pyramid_into(
        &self,
        dims: (usize, usize),
        combos: &ComboStore,
        out: &mut CwtPyramid,
    ) {
        // Reconstruct the per-level pre-padding dimensions.
        out.pre_pad_dims.clear();
        let (mut w, mut h) = dims;
        for _ in 0..self.levels {
            out.pre_pad_dims.push((w, h));
            w = (w + w % 2) / 2;
            h = (h + h % 2) / 2;
        }

        // Combine the four real detail quadruples into complex subbands.
        while out.subbands.len() < self.levels {
            out.subbands
                .push(std::array::from_fn(|_| ComplexImage::zeros(0, 0)));
        }
        out.subbands.truncate(self.levels);
        for level in 0..self.levels {
            let quad = |f: fn(&Subbands) -> &Image| -> [&Image; 4] {
                [
                    f(&combos.slots[0].detail[level]),
                    f(&combos.slots[1].detail[level]),
                    f(&combos.slots[2].detail[level]),
                    f(&combos.slots[3].detail[level]),
                ]
            };
            let bands = &mut out.subbands[level];
            // Orientation assignment: HL bands carry near-horizontal spatial
            // frequencies (±15°), LH near-vertical (±75°), HH diagonals
            // (±45°); the z1/z2 split separates the sign of the angle:
            // hl -> (+15, -15), hh -> (+45, -45), lh -> (+75, -75).
            let (z1, z2) = pair_mut(bands, 0, 5);
            quad_to_complex_into(quad(|s| &s.hl), z1, z2);
            let (z1, z2) = pair_mut(bands, 1, 4);
            quad_to_complex_into(quad(|s| &s.hh), z1, z2);
            let (z1, z2) = pair_mut(bands, 2, 3);
            quad_to_complex_into(quad(|s| &s.lh), z1, z2);
        }

        for (dst, slot) in out.lowpass.iter_mut().zip(&combos.slots) {
            dst.copy_from(&slot.ll);
        }
    }

    /// Inverse transform with the default scalar kernel.
    ///
    /// # Errors
    ///
    /// See [`Dtcwt::inverse_with`].
    pub fn inverse(&self, pyr: &CwtPyramid) -> Result<Image, DtcwtError> {
        self.inverse_with(&mut ScalarKernel::new(), pyr)
    }

    /// Inverse transform through a caller-supplied kernel: a thin wrapper
    /// over [`Dtcwt::inverse_into`] with a fresh scratch.
    ///
    /// Each of the four tree combinations is inverted independently and the
    /// results averaged; for an unmodified pyramid this reproduces the input
    /// exactly (up to `f32` rounding).
    ///
    /// # Errors
    ///
    /// Returns [`DtcwtError::MalformedPyramid`] on level-count mismatch and
    /// [`DtcwtError::BadDimensions`] on inconsistent subband shapes.
    pub fn inverse_with(
        &self,
        kernel: &mut dyn FilterKernel,
        pyr: &CwtPyramid,
    ) -> Result<Image, DtcwtError> {
        let mut out = Image::zeros(0, 0);
        self.inverse_into(kernel, pyr, &mut Scratch::new(), &mut out)?;
        Ok(out)
    }

    /// Allocation-free inverse transform: writes the reconstruction into
    /// `out`, staging per-combo syntheses in `scratch`. After a warm-up call
    /// of the same geometry it performs zero heap allocation.
    ///
    /// # Errors
    ///
    /// Same as [`Dtcwt::inverse_with`].
    pub fn inverse_into(
        &self,
        kernel: &mut dyn FilterKernel,
        pyr: &CwtPyramid,
        scratch: &mut Scratch,
        out: &mut Image,
    ) -> Result<(), DtcwtError> {
        self.check_pyramid(pyr)?;
        for ci in 0..COMBOS.len() {
            self.synthesize_combo_into(kernel, pyr, ci, scratch)?;
            if ci == 0 {
                out.copy_from(&scratch.cur);
            } else {
                out.add_scaled(&scratch.cur, 1.0);
            }
        }
        out.scale_in_place(0.25);
        Ok(())
    }

    /// Publishes the four inverse combo jobs of `pyr` onto the pool and
    /// returns immediately — the synthesis runs while the caller does other
    /// work (e.g. capturing the next frame). `tag` labels the batch (the
    /// depth-k engine uses its frame-slot index) and comes back on every
    /// outcome. Each submitted batch must eventually be collected, oldest
    /// first, by a [`WorkerPool::drain`] (the only batch in flight) or
    /// [`WorkerPool::drain_partial`] (several batches stacked) of its four
    /// outcomes, followed by [`Dtcwt::inverse_collect_outcomes`].
    ///
    /// # Errors
    ///
    /// [`DtcwtError::MalformedPyramid`] if `pyr` has the wrong level count
    /// (nothing is submitted in that case).
    pub fn inverse_pooled_submit(
        self: &Arc<Self>,
        pool: &WorkerPool,
        kernel: usize,
        pyr: &Arc<CwtPyramid>,
        bufs: &mut Vec<Image>,
        tag: u32,
    ) -> Result<(), DtcwtError> {
        self.check_pyramid(pyr)?;
        for ci in 0..COMBOS.len() {
            pool.submit(Job::InverseCombo {
                transform: Arc::clone(self),
                pyr: Arc::clone(pyr),
                tag,
                combo: ci,
                kernel,
                out: bufs.pop().unwrap_or_default(),
            });
        }
        Ok(())
    }

    /// Accumulates one already-harvested inverse batch (the four
    /// [`JobOutcome`]s of a single [`Dtcwt::inverse_pooled_submit`], in any
    /// order) into `out` and recycles the combo buffers into `bufs`. The
    /// combos are summed in combo order, so the result is bit-identical to
    /// the serial inverse regardless of worker completion order, thread
    /// count, or how many other batches were in flight alongside this one.
    ///
    /// # Errors
    ///
    /// Same as [`Dtcwt::inverse_with`], plus [`DtcwtError::MalformedPyramid`]
    /// if a worker lacked the requested kernel slot: the lowest-combo error
    /// of the batch, with all surviving buffers recycled first.
    pub fn inverse_collect_outcomes(
        &self,
        outcomes: &mut Vec<JobOutcome>,
        bufs: &mut Vec<Image>,
        out: &mut Image,
    ) -> Result<(), DtcwtError> {
        let mut slots: [Option<Image>; 4] = [None, None, None, None];
        let mut first_err: Option<(usize, DtcwtError)> = None;
        for oc in outcomes.drain(..) {
            if let JobPayload::Inverse { out: img } = oc.payload {
                slots[oc.combo] = Some(img);
            }
            if let Some(e) = oc.error {
                if first_err.as_ref().is_none_or(|(c, _)| oc.combo < *c) {
                    first_err = Some((oc.combo, e));
                }
            }
        }
        if let Some((_, e)) = first_err {
            // Recycle whatever buffers survived before reporting.
            bufs.extend(slots.into_iter().flatten());
            return Err(e);
        }
        // Accumulate in combo order so the result is bit-identical to the
        // serial inverse regardless of worker completion order.
        for (ci, slot) in slots.into_iter().enumerate() {
            let img = slot.expect("all four combos returned");
            if ci == 0 {
                out.copy_from(&img);
            } else {
                out.add_scaled(&img, 1.0);
            }
            bufs.push(img);
        }
        out.scale_in_place(0.25);
        Ok(())
    }

    /// Recycles the buffers of an already-harvested inverse batch without
    /// accumulating it (the abandon counterpart of
    /// [`Dtcwt::inverse_collect_outcomes`]). Errors are discarded.
    pub fn recycle_inverse_outcomes(outcomes: &mut Vec<JobOutcome>, bufs: &mut Vec<Image>) {
        for oc in outcomes.drain(..) {
            if let JobPayload::Inverse { out } = oc.payload {
                bufs.push(out);
            }
        }
    }

    fn check_pyramid(&self, pyr: &CwtPyramid) -> Result<(), DtcwtError> {
        if pyr.levels() != self.levels {
            return Err(DtcwtError::MalformedPyramid(format!(
                "pyramid has {} levels, transform expects {}",
                pyr.levels(),
                self.levels
            )));
        }
        Ok(())
    }

    /// Inverts tree combination `ci` of the pyramid, leaving its
    /// reconstruction in `scratch.cur`. Each level starts with the c2q glue
    /// step; every inverse combo job and [`Dtcwt::inverse_into`] run it.
    pub(crate) fn synthesize_combo_into(
        &self,
        kernel: &mut dyn FilterKernel,
        pyr: &CwtPyramid,
        ci: usize,
        scratch: &mut Scratch,
    ) -> Result<(), DtcwtError> {
        let (rt, ct) = COMBOS[ci];
        scratch.cur.copy_from(&pyr.lowpass[ci]);
        for level in (0..self.levels).rev() {
            let s = &pyr.subbands[level];
            let rows = self.axis_spec(level, rt);
            let cols = self.axis_spec(level, ct);
            let Scratch {
                s1,
                s2,
                cur,
                next,
                qlh,
                qhl,
                qhh,
                ..
            } = scratch;
            complex_to_quad_member_into(
                &s[Orientation::Pos15.index()],
                &s[Orientation::Neg15.index()],
                ci,
                qhl,
            );
            complex_to_quad_member_into(
                &s[Orientation::Pos45.index()],
                &s[Orientation::Neg45.index()],
                ci,
                qhh,
            );
            complex_to_quad_member_into(
                &s[Orientation::Pos75.index()],
                &s[Orientation::Neg75.index()],
                ci,
                qlh,
            );
            synthesize_level_into(kernel, &rows, &cols, cur, qlh, qhl, qhh, next, s2, s1)?;
            let (ow, oh) = pyr.pre_pad_dims[level];
            if next.dims() == (ow, oh) {
                std::mem::swap(cur, next);
            } else {
                next.crop_into(0, 0, ow, oh, cur);
            }
        }
        Ok(())
    }
}

/// Splits two distinct subband indices (`i < j`) out of one level's array.
fn pair_mut(
    bands: &mut [ComplexImage; 6],
    i: usize,
    j: usize,
) -> (&mut ComplexImage, &mut ComplexImage) {
    debug_assert!(i < j);
    let (head, tail) = bands.split_at_mut(j);
    (&mut head[i], &mut tail[0])
}

/// Combines the four per-tree real subbands `[aa, ab, ba, bb]` into the two
/// oppositely-oriented complex subbands, writing into reshaped outputs:
/// `z1 = ((aa − bb) + i(ab + ba)) / 2`, `z2 = ((aa + bb) + i(ab − ba)) / 2`.
///
/// One flat pass over the row-major planes. Every slice is cut to the same
/// length, so the loop carries no bounds checks and LLVM vectorizes it; each
/// element keeps its per-pixel expression, so the result is bit for bit the
/// same as a pixel-by-pixel loop.
fn quad_to_complex_into(q: [&Image; 4], z1: &mut ComplexImage, z2: &mut ComplexImage) {
    let (w, h) = q[0].dims();
    z1.reshape(w, h);
    z2.reshape(w, h);
    let n = w * h;
    let [aa, ab, ba, bb] = q.map(|img| &img.as_slice()[..n]);
    let (r1, i1) = (
        &mut z1.re.as_mut_slice()[..n],
        &mut z1.im.as_mut_slice()[..n],
    );
    let (r2, i2) = (
        &mut z2.re.as_mut_slice()[..n],
        &mut z2.im.as_mut_slice()[..n],
    );
    for k in 0..n {
        let (a, b, c, d) = (aa[k], ab[k], ba[k], bb[k]);
        r1[k] = 0.5 * (a - d);
        i1[k] = 0.5 * (b + c);
        r2[k] = 0.5 * (a + d);
        i2[k] = 0.5 * (b - c);
    }
}

/// Inverse of [`quad_to_complex_into`] for one tree combination `ci`
/// (`aa = 0, ab = 1, ba = 2, bb = 3`), writing into a reshaped output. The
/// combination is matched once, outside a flat vectorizable pass.
fn complex_to_quad_member_into(z1: &ComplexImage, z2: &ComplexImage, ci: usize, out: &mut Image) {
    let (w, h) = z1.dims();
    out.reshape(w, h);
    let n = w * h;
    let [r1, i1, r2, i2] = [&z1.re, &z1.im, &z2.re, &z2.im].map(|img| &img.as_slice()[..n]);
    let out = out.as_mut_slice();
    match ci {
        0 => zip_into(out, r1, r2, |r1, r2| r1 + r2), // aa
        1 => zip_into(out, i1, i2, |i1, i2| i1 + i2), // ab
        2 => zip_into(out, i1, i2, |i1, i2| i1 - i2), // ba
        3 => zip_into(out, r2, r1, |r2, r1| r2 - r1), // bb
        _ => unreachable!("tree combination index is 0..4"),
    }
}

/// `out[k] = f(x[k], y[k])` over equal-length slices.
#[inline(always)]
fn zip_into(out: &mut [f32], x: &[f32], y: &[f32], f: impl Fn(f32, f32) -> f32) {
    for (o, (&a, &b)) in out.iter_mut().zip(x.iter().zip(y)) {
        *o = f(a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_image(w: usize, h: usize) -> Image {
        Image::from_fn(w, h, |x, y| {
            ((x as f32 * 0.31).sin() * (y as f32 * 0.17).cos()) * 8.0
                + ((3 * x + 5 * y) % 11) as f32 * 0.4
        })
    }

    #[test]
    fn quad_complex_round_trip() {
        let imgs: Vec<Image> = (0..4)
            .map(|s| Image::from_fn(6, 4, |x, y| (s * 100 + y * 6 + x) as f32 * 0.1))
            .collect();
        let (mut z1, mut z2) = (ComplexImage::zeros(0, 0), ComplexImage::zeros(0, 0));
        quad_to_complex_into([&imgs[0], &imgs[1], &imgs[2], &imgs[3]], &mut z1, &mut z2);
        let mut back = Image::zeros(0, 0);
        for (ci, img) in imgs.iter().enumerate() {
            complex_to_quad_member_into(&z1, &z2, ci, &mut back);
            assert!(back.max_abs_diff(img) < 1e-5, "combo {ci} not recovered");
        }
    }

    /// The per-pixel accessor q2c the slice pass replaced: the bit-for-bit
    /// oracle.
    fn q2c_oracle(q: [&Image; 4]) -> (ComplexImage, ComplexImage) {
        let (w, h) = q[0].dims();
        let (mut z1, mut z2) = (ComplexImage::zeros(w, h), ComplexImage::zeros(w, h));
        for y in 0..h {
            for x in 0..w {
                let (a, b, c, d) = (
                    q[0].get(x, y),
                    q[1].get(x, y),
                    q[2].get(x, y),
                    q[3].get(x, y),
                );
                z1.re.set(x, y, 0.5 * (a - d));
                z1.im.set(x, y, 0.5 * (b + c));
                z2.re.set(x, y, 0.5 * (a + d));
                z2.im.set(x, y, 0.5 * (b - c));
            }
        }
        (z1, z2)
    }

    /// The per-pixel accessor c2q with its in-loop `match`: the bit-for-bit
    /// oracle.
    fn c2q_oracle(z1: &ComplexImage, z2: &ComplexImage, ci: usize) -> Image {
        let (w, h) = z1.dims();
        let mut out = Image::zeros(w, h);
        for y in 0..h {
            for x in 0..w {
                let (r1, i1) = (z1.re.get(x, y), z1.im.get(x, y));
                let (r2, i2) = (z2.re.get(x, y), z2.im.get(x, y));
                let v = match ci {
                    0 => r1 + r2,
                    1 => i1 + i2,
                    2 => i1 - i2,
                    3 => r2 - r1,
                    _ => unreachable!(),
                };
                out.set(x, y, v);
            }
        }
        out
    }

    /// Geometries of the glue sweeps: single pixels, single rows and
    /// columns, odd widths that are no multiple of any lane count, and the
    /// serve and bench frame subbands. A large one sits mid-list so later
    /// small ones reuse stale, larger output buffers.
    const GLUE_DIMS: [(usize, usize); 10] = [
        (1, 1),
        (1, 37),
        (37, 1),
        (160, 120),
        (7, 3),
        (13, 5),
        (17, 2),
        (44, 36),
        (1, 9),
        (9, 1),
    ];

    /// A plane that mixes ordinary values with signed zeros, NaNs of
    /// several payloads and signs, infinities, subnormals and the extremes,
    /// so every special meets every other across the planes of a sweep.
    fn special_plane(w: usize, h: usize, seed: u32) -> Image {
        const SPECIALS: [f32; 13] = [
            0.0,
            -0.0,
            f32::NAN,
            f32::from_bits(0xffc0_1234), // negative quiet NaN, payload
            f32::from_bits(0x7f80_0001), // signaling NaN
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),           // smallest subnormal
            f32::from_bits(0x807f_ffff), // largest negative subnormal
            f32::MAX,
            -f32::MAX,
            f32::MIN_POSITIVE,
            1.0,
        ];
        let mut state = seed.wrapping_mul(0x9e37_79b9) | 1;
        Image::from_fn(w, h, |_, _| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let r = state >> 8;
            if r.is_multiple_of(3) {
                SPECIALS[(r / 3) as usize % SPECIALS.len()]
            } else {
                (r % 20_001) as f32 * 0.01 - 100.0
            }
        })
    }

    /// Bit patterns, with every NaN mapped to one canonical NaN when
    /// `canonical` (a commutative `+` may swap its operands, which picks the
    /// other NaN's payload when both are NaN).
    fn bits(img: &Image, canonical: bool) -> Vec<u32> {
        img.as_slice()
            .iter()
            .map(|&v| {
                if canonical && v.is_nan() {
                    f32::NAN.to_bits()
                } else {
                    v.to_bits()
                }
            })
            .collect()
    }

    #[test]
    fn q2c_slice_pass_matches_the_per_pixel_oracle_bit_for_bit() {
        let (mut z1, mut z2) = (ComplexImage::zeros(0, 0), ComplexImage::zeros(0, 0));
        for (i, &(w, h)) in GLUE_DIMS.iter().enumerate() {
            let q: Vec<Image> = (0..4)
                .map(|p| special_plane(w, h, 4 * i as u32 + p))
                .collect();
            let q = [&q[0], &q[1], &q[2], &q[3]];
            quad_to_complex_into(q, &mut z1, &mut z2);
            let (w1, w2) = q2c_oracle(q);
            assert_eq!(z1.dims(), (w, h));
            assert_eq!(z2.dims(), (w, h));
            // `a - d` and `b - c` keep their operand order: exact bits.
            assert_eq!(bits(&z1.re, false), bits(&w1.re, false), "{w}x{h} z1.re");
            assert_eq!(bits(&z2.im, false), bits(&w2.im, false), "{w}x{h} z2.im");
            assert_eq!(bits(&z1.im, true), bits(&w1.im, true), "{w}x{h} z1.im");
            assert_eq!(bits(&z2.re, true), bits(&w2.re, true), "{w}x{h} z2.re");
        }
    }

    #[test]
    fn c2q_slice_pass_matches_the_per_pixel_oracle_bit_for_bit() {
        let mut out = Image::zeros(0, 0);
        for (i, &(w, h)) in GLUE_DIMS.iter().enumerate() {
            let planes: Vec<Image> = (0..4)
                .map(|p| special_plane(w, h, 97 + 4 * i as u32 + p))
                .collect();
            let z1 = ComplexImage::new(planes[0].clone(), planes[1].clone()).unwrap();
            let z2 = ComplexImage::new(planes[2].clone(), planes[3].clone()).unwrap();
            for ci in 0..4 {
                complex_to_quad_member_into(&z1, &z2, ci, &mut out);
                let want = c2q_oracle(&z1, &z2, ci);
                assert_eq!(out.dims(), (w, h));
                // Combinations 0 and 1 add; 2 and 3 subtract.
                let canonical = ci < 2;
                assert_eq!(
                    bits(&out, canonical),
                    bits(&want, canonical),
                    "{w}x{h} ci {ci}"
                );
            }
        }
    }

    #[test]
    fn perfect_reconstruction_paper_sizes() {
        for (w, h) in [(32, 24), (35, 35), (40, 40), (64, 48), (88, 72)] {
            let img = test_image(w, h);
            let levels = 3.min(Dwt2d::max_levels(w, h));
            let t = Dtcwt::new(levels).unwrap();
            let pyr = t.forward(&img).unwrap();
            let back = t.inverse(&pyr).unwrap();
            let err = back.max_abs_diff(&img);
            assert!(err < 2e-3, "{w}x{h}: err {err}");
        }
    }

    #[test]
    fn subband_count_and_dims() {
        let t = Dtcwt::new(2).unwrap();
        let pyr = t.forward(&test_image(64, 48)).unwrap();
        assert_eq!(pyr.levels(), 2);
        assert_eq!(pyr.subbands(0).len(), 6);
        assert_eq!(pyr.subbands(0)[0].dims(), (32, 24));
        assert_eq!(pyr.subbands(1)[0].dims(), (16, 12));
        for ll in pyr.lowpass() {
            assert_eq!(ll.dims(), (16, 12));
        }
        assert_eq!(pyr.input_dims(), (64, 48));
    }

    #[test]
    fn zero_levels_rejected() {
        assert!(Dtcwt::new(0).is_err());
    }

    #[test]
    fn level_mismatch_rejected() {
        let t2 = Dtcwt::new(2).unwrap();
        let t3 = Dtcwt::new(3).unwrap();
        let pyr = t2.forward(&test_image(64, 64)).unwrap();
        assert!(matches!(
            t3.inverse(&pyr),
            Err(DtcwtError::MalformedPyramid(_))
        ));
    }

    #[test]
    fn orientation_metadata() {
        assert_eq!(Orientation::ALL.len(), 6);
        for (i, o) in Orientation::ALL.iter().enumerate() {
            assert_eq!(o.index(), i);
        }
        assert_eq!(Orientation::Pos45.angle_degrees(), 45.0);
        assert_eq!(Orientation::Neg75.to_string(), "-75deg");
    }

    /// Diagonal gratings must excite the matching ±45° subband much more
    /// strongly than its mirror — the defining DT-CWT property a real DWT
    /// lacks.
    #[test]
    fn diagonal_orientation_selectivity() {
        let n = 64;
        // Wave vector along (1, 1): crests along the -45° direction...
        // what matters here is that the two diagonal gratings separate.
        let grating_pos = Image::from_fn(n, n, |x, y| ((x as f32 + y as f32) * 0.9).sin());
        let grating_neg = Image::from_fn(n, n, |x, y| ((x as f32 - y as f32) * 0.9).sin());
        let t = Dtcwt::new(2).unwrap();
        let e = |img: &Image, o: Orientation| -> f64 {
            let pyr = t.forward(img).unwrap();
            (0..2).map(|l| pyr.subband(l, o).energy()).sum()
        };
        let p_pos45 = e(&grating_pos, Orientation::Pos45);
        let p_neg45 = e(&grating_pos, Orientation::Neg45);
        let n_pos45 = e(&grating_neg, Orientation::Pos45);
        let n_neg45 = e(&grating_neg, Orientation::Neg45);
        // Each grating prefers one diagonal band by a wide margin, and they
        // prefer opposite bands.
        let ratio_a = p_pos45.max(p_neg45) / p_pos45.min(p_neg45);
        let ratio_b = n_pos45.max(n_neg45) / n_pos45.min(n_neg45);
        assert!(ratio_a > 4.0, "grating(+) ratio {ratio_a}");
        assert!(ratio_b > 4.0, "grating(-) ratio {ratio_b}");
        assert_eq!(
            p_pos45 > p_neg45,
            n_pos45 < n_neg45,
            "gratings must prefer opposite diagonal bands"
        );
    }

    #[test]
    fn pooled_forward_and_inverse_match_serial_exactly() {
        // Reused buffers must reproduce fresh ones bit for bit: one
        // scratch/combo-store reused across all sizes, including odd 35x35,
        // proves stale state cannot leak between geometries.
        let mut scratch = Scratch::new();
        let mut combos = ComboStore::new();
        let mut pyr_out = CwtPyramid::empty();
        let mut img_out = Image::zeros(0, 0);
        for (w, h) in [(32, 24), (35, 35), (40, 40), (8, 8), (88, 72)] {
            let img = test_image(w, h);
            let levels = 3.min(Dwt2d::max_levels(w, h));
            let t = Dtcwt::new(levels).unwrap();
            let mut k = ScalarKernel::new();
            let serial = t.forward_with(&mut k, &img).unwrap();
            t.forward_into(&mut k, &img, &mut combos, &mut scratch, &mut pyr_out)
                .unwrap();
            assert_eq!(pyr_out.levels(), serial.levels());
            assert_eq!(pyr_out.input_dims(), serial.input_dims());
            for level in 0..levels {
                for (a, b) in serial.subbands(level).iter().zip(pyr_out.subbands(level)) {
                    assert_eq!(a.re, b.re, "{w}x{h} level {level}");
                    assert_eq!(a.im, b.im, "{w}x{h} level {level}");
                }
            }
            for (a, b) in serial.lowpass().iter().zip(pyr_out.lowpass()) {
                assert_eq!(a, b, "{w}x{h} lowpass");
            }
            let inv_serial = t.inverse_with(&mut k, &serial).unwrap();
            t.inverse_into(&mut k, &pyr_out, &mut scratch, &mut img_out)
                .unwrap();
            assert_eq!(img_out, inv_serial, "{w}x{h} inverse");
        }
    }

    #[test]
    fn pooled_paths_reject_bad_inputs_like_serial() {
        let mut scratch = Scratch::new();
        let mut combos = ComboStore::new();
        let mut pyr_out = CwtPyramid::empty();
        let t6 = Dtcwt::new(6).unwrap();
        let img = test_image(16, 16);
        let mut k = ScalarKernel::new();
        assert!(matches!(
            t6.forward_into(&mut k, &img, &mut combos, &mut scratch, &mut pyr_out),
            Err(DtcwtError::BadLevels { .. })
        ));
        let t2 = Dtcwt::new(2).unwrap();
        let t3 = Dtcwt::new(3).unwrap();
        let pyr = t2.forward(&test_image(32, 32)).unwrap();
        let mut out = Image::zeros(0, 0);
        assert!(matches!(
            t3.inverse_into(&mut k, &pyr, &mut scratch, &mut out),
            Err(DtcwtError::MalformedPyramid(_))
        ));
        // The pooled submits reject the same inputs before publishing any
        // job, so the ring stays empty.
        let pool = WorkerPool::new(2, &mut |_| {
            vec![Box::new(ScalarKernel::new()) as Box<dyn FilterKernel + Send>]
        });
        let img = Arc::new(img);
        let mut combos_b = ComboStore::new();
        assert!(matches!(
            Arc::new(t6).forward_pooled_pair_submit(
                &pool,
                0,
                &img,
                &mut combos,
                &img,
                &mut combos_b
            ),
            Err(DtcwtError::BadLevels { .. })
        ));
        let mut bufs = Vec::new();
        assert!(matches!(
            Arc::new(t3).inverse_pooled_submit(&pool, 0, &Arc::new(pyr), &mut bufs, 0),
            Err(DtcwtError::MalformedPyramid(_))
        ));
        assert_eq!(pool.outstanding(), 0, "nothing was submitted");
    }

    #[test]
    fn pooled_worker_inverse_matches_serial_exactly() {
        let img = test_image(40, 40);
        let t = Arc::new(Dtcwt::new(3).unwrap());
        let pyr = Arc::new(t.forward(&img).unwrap());
        let serial = t.inverse(&pyr).unwrap();
        let pool = WorkerPool::new(4, &mut |_| {
            vec![Box::new(ScalarKernel::new()) as Box<dyn FilterKernel + Send>]
        });
        let mut bufs = Vec::new();
        let mut outcomes = Vec::new();
        let mut out = Image::zeros(0, 0);
        t.inverse_pooled_submit(&pool, 0, &pyr, &mut bufs, 0)
            .unwrap();
        assert_eq!(pool.drain(4, &mut outcomes), None);
        t.inverse_collect_outcomes(&mut outcomes, &mut bufs, &mut out)
            .unwrap();
        assert_eq!(out, serial);
        assert_eq!(bufs.len(), 4, "all four buffers recycled");
    }

    #[test]
    fn constant_image_energy_in_lowpass_only() {
        let img = Image::filled(32, 32, 4.0);
        let t = Dtcwt::new(2).unwrap();
        let pyr = t.forward(&img).unwrap();
        for l in 0..2 {
            assert!(pyr.level_energy(l) < 1e-6, "level {l} leaked");
        }
        for ll in pyr.lowpass() {
            // Gain sqrt(2)^2 per level on the lowpass path.
            assert!((ll.get(4, 4) - 16.0).abs() < 1e-3);
        }
    }
}
