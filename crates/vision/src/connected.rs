//! Run-based connected-components labelling.
//!
//! The paper's segmentation stage groups foreground pixels into objects with
//! connected-components analysis (their reference \[2\] accelerates this on
//! FPGA; here it runs on the CPU side exactly as in the paper's §I pipeline
//! description). The mask is read as maximal horizontal runs of set pixels,
//! found a word at a time, and union–find joins the runs of adjacent rows
//! that touch — the row-by-row shape of a streaming FPGA labeller (DESIGN.md
//! §"The packed vision front end").

use std::ops::Range;

use bsom_signature::BinaryImage;

/// A maximal horizontal run of foreground pixels in one mask row, with the
/// component it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Run {
    /// The row of the run.
    pub(crate) y: usize,
    /// The run's columns, end exclusive.
    pub(crate) x: Range<usize>,
    /// The 1-based component label.
    pub(crate) component: u32,
}

/// The result of labelling a foreground mask: the mask's row runs, each with
/// its component (labels are 1-based and contiguous; background is 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentLabels {
    width: usize,
    height: usize,
    /// Row-major: by row, then left to right within a row.
    runs: Vec<Run>,
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
        let next = self.runs.partition_point(|r| (r.y, r.x.end) <= (y, x));
        match self.runs.get(next) {
            Some(run) if run.y == y && run.x.start <= x => run.component,
            _ => 0,
        }
    }

    /// Pixel count of every component, indexed by `label - 1`.
    pub fn component_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.component_count];
        for run in &self.runs {
            sizes[run.component as usize - 1] += run.x.len();
        }
        sizes
    }

    /// The runs in row-major order.
    pub(crate) fn runs(&self) -> &[Run] {
        &self.runs
    }
}

/// Root of `run`'s set, halving the path on the way up.
fn find(parent: &mut [usize], mut run: usize) -> usize {
    while parent[run] != run {
        parent[run] = parent[parent[run]];
        run = parent[run];
    }
    run
}

/// Joins the sets of runs `a` and `b` under the smaller root, so every
/// root is the first run of its component in row-major order.
fn union(parent: &mut [usize], a: usize, b: usize) {
    let (ra, rb) = (find(parent, a), find(parent, b));
    parent[ra.max(rb)] = ra.min(rb);
}

/// Labels the connected components of a binary foreground mask using
/// 8-connectivity (a diagonal touch joins two pixels into one object, which
/// is the conventional choice for silhouettes).
///
/// Component ids are contiguous from 1 in first-encounter order over the
/// pixels in row-major order.
pub fn label_components(mask: &BinaryImage) -> ComponentLabels {
    let mut runs: Vec<Run> = Vec::new();
    let mut parent: Vec<usize> = Vec::new();
    let mut above = 0..0;
    for y in 0..mask.height() {
        let row_start = runs.len();
        // The runs of the row above are sorted too, so one forward sweep
        // finds every touching pair.
        let mut first = above.start;
        for x in mask.row_runs(y) {
            let run = runs.len();
            // Under 8-connectivity a run above touches this one when the
            // columns, each widened by one pixel, overlap.
            while first < above.end && runs[first].x.end < x.start {
                first += 1;
            }
            parent.push(run);
            for touching in (first..above.end).take_while(|&a| runs[a].x.start <= x.end) {
                union(&mut parent, touching, run);
            }
            runs.push(Run { y, x, component: 0 });
        }
        above = row_start..runs.len();
    }

    // A root is its component's first run, which holds the component's
    // first pixel, so numbering roots in run order is numbering in
    // first-encounter pixel order.
    let mut component_count = 0u32;
    for run in 0..runs.len() {
        let root = find(&mut parent, run);
        runs[run].component = if root == run {
            component_count += 1;
            component_count
        } else {
            runs[root].component
        };
    }

    ComponentLabels {
        width: mask.width(),
        height: mask.height(),
        runs,
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
