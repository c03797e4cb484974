//! Run-based connected-components labelling.
//!
//! The paper's segmentation stage groups foreground pixels into objects with
//! connected-components analysis (their reference \[2\] accelerates this on
//! FPGA; here it runs on the CPU side exactly as in the paper's §I pipeline
//! description). One pass over the mask's words finds every maximal
//! horizontal run of set pixels, and union–find joins each run, as it is
//! found, to the runs of the row above that touch it — the row-by-row shape
//! of a streaming FPGA labeller (DESIGN.md §"The packed vision front end").

use std::ops::Range;

use bsom_signature::BinaryImage;
use serde::{Deserialize, Serialize};

/// A maximal horizontal run of foreground pixels in one mask row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RowRun {
    /// The run's row.
    pub y: usize,
    /// The run's first column.
    pub x_start: usize,
    /// One past the run's last column.
    pub x_end: usize,
}

impl RowRun {
    /// The run's columns, end exclusive.
    pub fn columns(&self) -> Range<usize> {
        self.x_start..self.x_end
    }
}

/// The result of labelling a foreground mask: the mask's row runs, each with
/// its component (labels are 1-based and contiguous; background is 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentLabels {
    width: usize,
    height: usize,
    /// Row-major: by row, then left to right within a row.
    runs: Vec<RowRun>,
    /// The 1-based component of each run.
    components: Vec<u32>,
    component_count: usize,
}

impl ComponentLabels {
    /// Image width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of connected components found (excluding background).
    pub fn component_count(&self) -> usize {
        self.component_count
    }

    /// The label at `(x, y)`: 0 for background, otherwise a 1-based component
    /// id. Out-of-bounds coordinates return 0.
    pub fn label(&self, x: usize, y: usize) -> u32 {
        // The runs are row-major and disjoint, so the first run not wholly
        // before (x, y) is the only one that can hold it.
        let next = self.runs.partition_point(|r| (r.y, r.x_end) <= (y, x));
        match self.runs.get(next) {
            Some(run) if run.y == y && run.x_start <= x => self.components[next],
            _ => 0,
        }
    }

    /// Pixel count of every component, indexed by `label - 1`.
    pub fn component_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.component_count];
        for (run, &component) in self.runs() {
            sizes[component as usize - 1] += run.columns().len();
        }
        sizes
    }

    /// The runs in row-major order, each with its component.
    pub(crate) fn runs(&self) -> impl Iterator<Item = (&RowRun, &u32)> {
        self.runs.iter().zip(&self.components)
    }
}

/// Root of `run`'s set, halving the path on the way up.
fn find(parent: &mut [u32], mut run: u32) -> u32 {
    while parent[run as usize] != run {
        let grandparent = parent[parent[run as usize] as usize];
        parent[run as usize] = grandparent;
        run = grandparent;
    }
    run
}

/// Joins the sets of runs `a` and `b` under the smaller root, so every
/// root is the first run of its component in row-major order.
fn union(parent: &mut [u32], a: u32, b: u32) {
    let (ra, rb) = (find(parent, a), find(parent, b));
    parent[ra.max(rb) as usize] = ra.min(rb);
}

/// One pass of labelling: the run table, its union–find links, and the row
/// the scan has reached.
struct Scan {
    width: usize,
    runs: Vec<RowRun>,
    /// Each run's union–find parent, a run index.
    parent: Vec<u32>,
    /// The current row and the bit index of its first pixel.
    row: usize,
    row_start: usize,
    /// Where the current row's runs begin in the table.
    row_first: usize,
    /// The runs of the row above.
    above: Range<usize>,
    /// The first run above that can still touch a run of this row.
    sweep: usize,
}

impl Scan {
    /// Moves to the next row; the current row's runs become the row above.
    fn next_row(&mut self) {
        self.above = self.row_first..self.runs.len();
        self.sweep = self.above.start;
        self.row_first = self.runs.len();
        self.row += 1;
        self.row_start += self.width;
    }

    /// Adds the set pixels `start..end` of the row-major bit stream, cut
    /// into one run per row they cover.
    fn add_stream_run(&mut self, mut start: usize, end: usize) {
        loop {
            while start >= self.row_start + self.width {
                self.next_row();
            }
            let stop = end.min(self.row_start + self.width);
            self.add_run(start - self.row_start, stop - self.row_start);
            if stop == end {
                return;
            }
            start = stop;
        }
    }

    /// Adds the run `x_start..x_end` of the current row and joins it to
    /// every run above that touches it.
    fn add_run(&mut self, x_start: usize, x_end: usize) {
        // Under 8-connectivity a run above touches this one when the
        // columns, each widened by one pixel, overlap. The runs above are
        // sorted, so one forward sweep per row finds every touching pair.
        let run = self.runs.len() as u32;
        let runs = &self.runs;
        while self.sweep < self.above.end && runs[self.sweep].x_end < x_start {
            self.sweep += 1;
        }
        self.parent.push(run);
        for touching in (self.sweep..self.above.end).take_while(|&a| runs[a].x_start <= x_end) {
            union(&mut self.parent, touching as u32, run);
        }
        self.runs.push(RowRun {
            y: self.row,
            x_start,
            x_end,
        });
    }
}

/// Labels the connected components of a binary foreground mask using
/// 8-connectivity (a diagonal touch joins two pixels into one object, which
/// is the conventional choice for silhouettes).
///
/// Component ids are contiguous from 1 in first-encounter order over the
/// pixels in row-major order.
///
/// # Panics
///
/// Panics if the mask could hold more runs than a `u32` counts, which takes
/// more than eight billion pixels.
pub fn label_components(mask: &BinaryImage) -> ComponentLabels {
    let (width, height) = (mask.width(), mask.height());
    let words = mask.as_vector().as_words();

    // A run begins where the row-major bit stream steps from 0 to 1, or at
    // a row start the stream runs across, so this bounds the run count.
    let mut capacity = height;
    let mut previous = 0u64;
    for &word in words {
        capacity += (word & !(word << 1 | previous >> 63)).count_ones() as usize;
        previous = word;
    }
    assert!(
        u32::try_from(capacity).is_ok(),
        "a {width}x{height} mask can hold more runs than u32 indices reach"
    );
    let mut scan = Scan {
        width,
        runs: Vec::with_capacity(capacity),
        parent: Vec::with_capacity(capacity),
        row: 0,
        row_start: 0,
        row_first: 0,
        above: 0..0,
        sweep: 0,
    };

    // Bit i of `edges` is set where pixel i differs from pixel i − 1: a
    // stream run starts there when the pixel is set and ends there when it
    // is clear. Starts and ends alternate, and the bits past the last pixel
    // are clear, so a run still open after the last word ends at the mask's
    // end.
    let mut open = None;
    let mut previous = 0u64;
    for (index, &word) in words.iter().enumerate() {
        let mut edges = word ^ (word << 1 | previous >> 63);
        previous = word;
        while edges != 0 {
            let at = index * 64 + edges.trailing_zeros() as usize;
            edges &= edges - 1;
            match open.take() {
                None => open = Some(at),
                Some(start) => scan.add_stream_run(start, at),
            }
        }
    }
    if let Some(start) = open {
        scan.add_stream_run(start, width * height);
    }

    // A run's parent never comes after it: a root links under a smaller
    // root, and path halving only moves links further back. Walking the
    // runs in order, a run's parent therefore already holds its component
    // id, unless the run is a root — its component's first run, holding the
    // component's first pixel — which opens the next id. Numbering roots in
    // run order is numbering in first-encounter pixel order.
    let mut components = scan.parent;
    let mut component_count = 0u32;
    for run in 0..components.len() {
        let parent = components[run] as usize;
        components[run] = if parent == run {
            component_count += 1;
            component_count
        } else {
            components[parent]
        };
    }

    ComponentLabels {
        width,
        height,
        runs: scan.runs,
        components,
        component_count: component_count as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask_from_rows(rows: &[&str]) -> BinaryImage {
        let height = rows.len();
        let width = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut mask = BinaryImage::new(width, height);
        for (y, row) in rows.iter().enumerate() {
            for (x, c) in row.chars().enumerate() {
                mask.set(x, y, c == '#');
            }
        }
        mask
    }

    #[test]
    fn empty_mask_has_no_components() {
        let mask = BinaryImage::new(10, 10);
        let labels = label_components(&mask);
        assert_eq!(labels.component_count(), 0);
        assert!((0..10).all(|y| (0..10).all(|x| labels.label(x, y) == 0)));
        assert!(labels.component_sizes().is_empty());
    }

    #[test]
    fn single_blob_is_one_component() {
        let mask = mask_from_rows(&["....", ".##.", ".##.", "...."]);
        let labels = label_components(&mask);
        assert_eq!(labels.component_count(), 1);
        assert_eq!(labels.component_sizes(), vec![4]);
        assert_eq!(labels.label(1, 1), 1);
        assert_eq!(labels.label(0, 0), 0);
    }

    #[test]
    fn separate_blobs_get_distinct_labels() {
        let mask = mask_from_rows(&["##...##", "##...##", ".......", "..###.."]);
        let labels = label_components(&mask);
        assert_eq!(labels.component_count(), 3);
        let sizes = labels.component_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 11);
        assert_ne!(labels.label(0, 0), labels.label(6, 0));
        assert_ne!(labels.label(0, 0), labels.label(3, 3));
    }

    #[test]
    fn diagonal_touch_merges_with_eight_connectivity() {
        let mask = mask_from_rows(&["#..", ".#.", "..#"]);
        let labels = label_components(&mask);
        assert_eq!(labels.component_count(), 1);
    }

    #[test]
    fn u_shape_equivalence_is_resolved() {
        // A 'U' shape first appears as two columns that only merge at the
        // bottom row — the classic case requiring label equivalence.
        let mask = mask_from_rows(&["#...#", "#...#", "#...#", "#####"]);
        let labels = label_components(&mask);
        assert_eq!(labels.component_count(), 1);
        assert_eq!(labels.component_sizes(), vec![11]);
        assert_eq!(labels.label(0, 0), labels.label(4, 0));
    }

    #[test]
    fn w_shape_with_multiple_equivalences() {
        let mask = mask_from_rows(&["#.#.#", "#.#.#", "#####"]);
        let labels = label_components(&mask);
        assert_eq!(labels.component_count(), 1);
    }

    #[test]
    fn labels_are_contiguous_from_one() {
        let mask = mask_from_rows(&["#.#.#.#", ".......", "#.#.#.#"]);
        let labels = label_components(&mask);
        assert_eq!(labels.component_count(), 8);
        let mut seen: Vec<u32> = (0..3)
            .flat_map(|y| (0..7).map(move |x| (x, y)))
            .map(|(x, y)| labels.label(x, y))
            .filter(|&l| l > 0)
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, (1..=8).collect::<Vec<u32>>());
    }

    #[test]
    fn out_of_bounds_label_is_background() {
        let mask = mask_from_rows(&["##", "##"]);
        let labels = label_components(&mask);
        assert_eq!(labels.label(5, 5), 0);
        assert_eq!(labels.width(), 2);
        assert_eq!(labels.height(), 2);
    }

    #[test]
    fn runs_match_a_bit_by_bit_scan() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for width in [1usize, 2, 63, 64, 65, 96, 127, 160, 200] {
            for height in [1usize, 2, 3, 7] {
                for density in [0.1, 0.5, 0.9, 1.0] {
                    let mut mask = BinaryImage::new(width, height);
                    for y in 0..height {
                        for x in 0..width {
                            mask.set(x, y, rng.gen_bool(density));
                        }
                    }
                    let mut expected = Vec::new();
                    for y in 0..height {
                        let mut start = None;
                        for x in 0..=width {
                            match (mask.get(x, y).unwrap_or(false), start) {
                                (true, None) => start = Some(x),
                                (false, Some(x_start)) => {
                                    expected.push(RowRun {
                                        y,
                                        x_start,
                                        x_end: x,
                                    });
                                    start = None;
                                }
                                _ => {}
                            }
                        }
                    }
                    let labels = label_components(&mask);
                    assert_eq!(labels.runs, expected, "{width}x{height} at {density}");
                    assert_eq!(labels.components.len(), expected.len());
                }
            }
        }
    }

    #[test]
    fn full_mask_is_single_component() {
        let mut mask = BinaryImage::new(16, 16);
        for y in 0..16 {
            for x in 0..16 {
                mask.set(x, y, true);
            }
        }
        let labels = label_components(&mask);
        assert_eq!(labels.component_count(), 1);
        assert_eq!(labels.component_sizes(), vec![256]);
    }
}
