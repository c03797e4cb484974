//! Oracle suite for the packed vision front end.
//!
//! The `reference` module keeps the per-pixel front end: background
//! differencing one pixel at a time, two-pass union–find labelling over a
//! per-pixel label buffer, per-pixel blob accumulation, a per-pixel masked
//! histogram and bit-by-bit mean thresholding. The packed stages must
//! reproduce it exactly — the label at every pixel, component numbering and
//! sizes, every `Blob` field (centroid bits included), histograms and
//! signatures, masks and background estimates — on widths whose rows
//! straddle 64-bit words, on edge-case masks, and on whole scene clips
//! through `SurveillancePipeline::process_frame`. Segmentation and the scene
//! clips run under every kernel dispatch the machine offers.

use bsom_signature::lanes::{force_dispatch, Dispatch};
use bsom_signature::{BinaryImage, Rgb, RgbImage};
use bsom_vision::blob::{extract_blobs, Blob};
use bsom_vision::pipeline::{PipelineConfig, SurveillancePipeline};
use bsom_vision::scene::{SceneConfig, SceneSimulator};
use bsom_vision::{label_components, BackgroundConfig, BackgroundModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, MutexGuard};

/// Row widths around the 64-bit word size: rows shorter than, equal to and
/// longer than a word, and widths whose rows start mid-word.
const WIDTHS: [usize; 7] = [1, 63, 64, 65, 127, 160, 200];

/// Serializes the tests that force the process-wide dispatch.
static FORCE_LOCK: Mutex<()> = Mutex::new(());

/// Exclusive use of the forced dispatch for one test; dropping it clears
/// the override.
struct Forced {
    _lock: MutexGuard<'static, ()>,
}

impl Forced {
    fn lock() -> Self {
        Forced {
            _lock: FORCE_LOCK.lock().unwrap_or_else(|e| e.into_inner()),
        }
    }

    fn set(&self, dispatch: Dispatch) {
        force_dispatch(Some(dispatch)).expect("an available dispatch");
    }
}

impl Drop for Forced {
    fn drop(&mut self) {
        let _ = force_dispatch(None);
    }
}

/// The per-pixel front end, kept as the oracle.
mod reference {
    use bsom_signature::{BinaryImage, BinaryVector, ColorHistogram, Rgb, RgbImage, Silhouette};
    use bsom_vision::blob::{Blob, BoundingBox};
    use bsom_vision::pipeline::ObjectObservation;
    use bsom_vision::{BackgroundConfig, Tracker, TrackerConfig};
    use serde::Serialize;

    /// The per-pixel running-average model. Its fields mirror
    /// `BackgroundModel`'s — one f64 estimate plane per channel — so the two
    /// serialise to the same JSON exactly when their estimates are
    /// bit-identical.
    #[derive(Debug, Clone, Serialize)]
    pub struct Background {
        config: BackgroundConfig,
        width: usize,
        height: usize,
        red: Vec<f64>,
        green: Vec<f64>,
        blue: Vec<f64>,
        initialised: bool,
    }

    impl Background {
        pub fn new(width: usize, height: usize, config: BackgroundConfig) -> Self {
            Background {
                config,
                width,
                height,
                red: vec![0.0; width * height],
                green: vec![0.0; width * height],
                blue: vec![0.0; width * height],
                initialised: false,
            }
        }

        /// Pixel `i`'s three channel estimates.
        fn estimate(&mut self, i: usize) -> [&mut f64; 3] {
            [&mut self.red[i], &mut self.green[i], &mut self.blue[i]]
        }

        pub fn background_image(&self) -> RgbImage {
            let mut img = RgbImage::new(self.width, self.height);
            for y in 0..self.height {
                for x in 0..self.width {
                    let i = y * self.width + x;
                    img.set(
                        x,
                        y,
                        Rgb::new(self.red[i] as u8, self.green[i] as u8, self.blue[i] as u8),
                    );
                }
            }
            img
        }

        pub fn observe_background(&mut self, frame: &RgbImage) {
            if frame.width() != self.width || frame.height() != self.height {
                return;
            }
            if !self.initialised {
                for (x, y, c) in frame.enumerate_pixels() {
                    let [r, g, b] = self.estimate(y * self.width + x);
                    [*r, *g, *b] = [f64::from(c.r), f64::from(c.g), f64::from(c.b)];
                }
                self.initialised = true;
                return;
            }
            let alpha = self.config.learning_rate;
            for (x, y, c) in frame.enumerate_pixels() {
                let [r, g, b] = self.estimate(y * self.width + x);
                *r = (1.0 - alpha) * *r + alpha * f64::from(c.r);
                *g = (1.0 - alpha) * *g + alpha * f64::from(c.g);
                *b = (1.0 - alpha) * *b + alpha * f64::from(c.b);
            }
        }

        pub fn segment(&mut self, frame: &RgbImage) -> BinaryImage {
            let mut mask = BinaryImage::new(self.width, self.height);
            if frame.width() != self.width || frame.height() != self.height {
                return mask;
            }
            if !self.initialised {
                self.observe_background(frame);
                return mask;
            }
            let alpha = self.config.learning_rate;
            let BackgroundConfig {
                foreground_threshold,
                update_foreground,
                ..
            } = self.config;
            for (x, y, c) in frame.enumerate_pixels() {
                let [r, g, b] = self.estimate(y * self.width + x);
                let bg = Rgb::new(*r as u8, *g as u8, *b as u8);
                let is_foreground = bg.distance_sq(c) > foreground_threshold;
                if is_foreground {
                    mask.set(x, y, true);
                }
                if !is_foreground || update_foreground {
                    *r = (1.0 - alpha) * *r + alpha * f64::from(c.r);
                    *g = (1.0 - alpha) * *g + alpha * f64::from(c.g);
                    *b = (1.0 - alpha) * *b + alpha * f64::from(c.b);
                }
            }
            mask
        }
    }

    /// One `u32` label per pixel (0 = background, 1-based contiguous ids).
    pub struct Labels {
        pub width: usize,
        pub height: usize,
        pub labels: Vec<u32>,
        pub component_count: usize,
    }

    impl Labels {
        pub fn component_sizes(&self) -> Vec<usize> {
            let mut sizes = vec![0usize; self.component_count];
            for &l in &self.labels {
                if l > 0 {
                    sizes[(l - 1) as usize] += 1;
                }
            }
            sizes
        }
    }

    struct UnionFind {
        parent: Vec<u32>,
        size: Vec<u32>,
    }

    impl UnionFind {
        fn new() -> Self {
            UnionFind {
                parent: vec![0],
                size: vec![0],
            }
        }

        fn make_set(&mut self) -> u32 {
            let id = self.parent.len() as u32;
            self.parent.push(id);
            self.size.push(1);
            id
        }

        fn find(&mut self, mut x: u32) -> u32 {
            while self.parent[x as usize] != x {
                let grandparent = self.parent[self.parent[x as usize] as usize];
                self.parent[x as usize] = grandparent;
                x = grandparent;
            }
            x
        }

        fn union(&mut self, a: u32, b: u32) {
            let ra = self.find(a);
            let rb = self.find(b);
            if ra == rb {
                return;
            }
            let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
                (ra, rb)
            } else {
                (rb, ra)
            };
            self.parent[small as usize] = big;
            self.size[big as usize] += self.size[small as usize];
        }
    }

    /// Two-pass 8-connected labelling over a per-pixel label buffer.
    pub fn label_components(mask: &BinaryImage) -> Labels {
        let width = mask.width();
        let height = mask.height();
        let mut labels = vec![0u32; width * height];
        let mut uf = UnionFind::new();

        for y in 0..height {
            for x in 0..width {
                if !mask.get(x, y).unwrap_or(false) {
                    continue;
                }
                let mut neighbour_labels = [0u32; 4];
                let mut count = 0;
                let mut push = |l: u32| {
                    if l != 0 {
                        neighbour_labels[count] = l;
                        count += 1;
                    }
                };
                if x > 0 {
                    push(labels[y * width + x - 1]);
                }
                if y > 0 {
                    if x > 0 {
                        push(labels[(y - 1) * width + x - 1]);
                    }
                    push(labels[(y - 1) * width + x]);
                    if x + 1 < width {
                        push(labels[(y - 1) * width + x + 1]);
                    }
                }
                let label = if count == 0 {
                    uf.make_set()
                } else {
                    let min = *neighbour_labels[..count].iter().min().unwrap();
                    for &l in &neighbour_labels[..count] {
                        uf.union(min, l);
                    }
                    min
                };
                labels[y * width + x] = label;
            }
        }

        let mut remap: Vec<u32> = vec![0; uf.parent.len()];
        let mut next = 0u32;
        for l in labels.iter_mut() {
            if *l == 0 {
                continue;
            }
            let root = uf.find(*l);
            if remap[root as usize] == 0 {
                next += 1;
                remap[root as usize] = next;
            }
            *l = remap[root as usize];
        }

        Labels {
            width,
            height,
            labels,
            component_count: next as usize,
        }
    }

    /// Per-pixel blob accumulation with f64 coordinate sums.
    pub fn extract_blobs(labels: &Labels) -> Vec<Blob> {
        let count = labels.component_count;
        if count == 0 {
            return Vec::new();
        }
        struct Accumulator {
            area: usize,
            min_x: usize,
            min_y: usize,
            max_x: usize,
            max_y: usize,
            sum_x: f64,
            sum_y: f64,
            silhouette: Silhouette,
        }
        let mut accs: Vec<Accumulator> = (0..count)
            .map(|_| Accumulator {
                area: 0,
                min_x: usize::MAX,
                min_y: usize::MAX,
                max_x: 0,
                max_y: 0,
                sum_x: 0.0,
                sum_y: 0.0,
                silhouette: Silhouette::new(labels.width, labels.height),
            })
            .collect();

        for y in 0..labels.height {
            for x in 0..labels.width {
                let l = labels.labels[y * labels.width + x];
                if l == 0 {
                    continue;
                }
                let acc = &mut accs[(l - 1) as usize];
                acc.area += 1;
                acc.min_x = acc.min_x.min(x);
                acc.min_y = acc.min_y.min(y);
                acc.max_x = acc.max_x.max(x);
                acc.max_y = acc.max_y.max(y);
                acc.sum_x += x as f64;
                acc.sum_y += y as f64;
                acc.silhouette.mark(x, y);
            }
        }

        accs.into_iter()
            .enumerate()
            .filter(|(_, a)| a.area > 0)
            .map(|(i, a)| Blob {
                component: (i + 1) as u32,
                area: a.area,
                bbox: BoundingBox {
                    min_x: a.min_x,
                    min_y: a.min_y,
                    max_x: a.max_x,
                    max_y: a.max_y,
                },
                centroid: (a.sum_x / a.area as f64, a.sum_y / a.area as f64),
                silhouette: a.silhouette,
            })
            .collect()
    }

    /// Per-pixel histogram of the pixels under `mask`.
    pub fn masked_histogram(image: &RgbImage, mask: &Silhouette) -> Option<ColorHistogram> {
        if mask.width() != image.width() || mask.height() != image.height() {
            return None;
        }
        let mut hist = ColorHistogram::new();
        for (x, y, colour) in image.enumerate_pixels() {
            if mask.get(x, y).unwrap_or(false) {
                hist.add_pixel(colour);
            }
        }
        Some(hist)
    }

    /// Eq. 2 one bin at a time: `1` where `bin >= θ`.
    pub fn signature(hist: &ColorHistogram) -> BinaryVector {
        let threshold = hist.mean_threshold();
        BinaryVector::from_bits(hist.bins().iter().map(|&c| f64::from(c) >= threshold))
    }

    /// The per-pixel stages composed as `SurveillancePipeline` composes
    /// the packed ones.
    pub struct Pipeline {
        pub background: Background,
        tracker: Tracker,
        min_object_pixels: usize,
    }

    impl Pipeline {
        pub fn new(width: usize, height: usize, min_object_pixels: usize) -> Self {
            Pipeline {
                background: Background::new(width, height, BackgroundConfig::default()),
                tracker: Tracker::new(TrackerConfig::default()),
                min_object_pixels,
            }
        }

        pub fn process_frame(&mut self, frame: &RgbImage) -> Vec<ObjectObservation> {
            let mask = self.background.segment(frame);
            let labels = label_components(&mask);
            let blobs: Vec<Blob> = extract_blobs(&labels)
                .into_iter()
                .filter(|b| b.area >= self.min_object_pixels)
                .collect();
            let assignments = self.tracker.update(&blobs);
            assignments
                .into_iter()
                .filter_map(|(track, blob_index)| {
                    let blob = &blobs[blob_index];
                    let histogram = masked_histogram(frame, &blob.silhouette)?;
                    let signature = signature(&histogram);
                    Some(ObjectObservation {
                        track,
                        area: blob.area,
                        bbox: blob.bbox,
                        centroid: blob.centroid,
                        histogram,
                        signature,
                    })
                })
                .collect()
        }
    }
}

fn random_image(width: usize, height: usize, rng: &mut StdRng) -> RgbImage {
    let pixels = (0..width * height)
        .map(|_| Rgb::new(rng.gen(), rng.gen(), rng.gen()))
        .collect();
    RgbImage::from_pixels(width, height, pixels).expect("buffer matches the size")
}

fn mask_from_rows(rows: &[&str]) -> BinaryImage {
    let width = rows.first().map_or(0, |r| r.len());
    let mut mask = BinaryImage::new(width, rows.len());
    for (y, row) in rows.iter().enumerate() {
        for (x, c) in row.chars().enumerate() {
            mask.set(x, y, c == '#');
        }
    }
    mask
}

/// A mask of one of several shapes: scattered pixels at a density,
/// overlapping rectangles, or a checkerboard with holes (diagonal joins
/// everywhere).
fn generated_mask(width: usize, height: usize, kind: u32, seed: u64) -> BinaryImage {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mask = BinaryImage::new(width, height);
    match kind {
        0..=4 => {
            let density = [0.05, 0.2, 0.5, 0.8, 0.95][kind as usize];
            for y in 0..height {
                for x in 0..width {
                    mask.set(x, y, rng.gen_bool(density));
                }
            }
        }
        5 => {
            for _ in 0..rng.gen_range(1..6) {
                let (x0, y0) = (rng.gen_range(0..width), rng.gen_range(0..height));
                let (w, h) = (rng.gen_range(1..=width), rng.gen_range(1..=height));
                for y in y0..(y0 + h).min(height) {
                    for x in x0..(x0 + w).min(width) {
                        mask.set(x, y, true);
                    }
                }
            }
        }
        _ => {
            for y in 0..height {
                for x in 0..width {
                    mask.set(x, y, (x + y) % 2 == 0 && !rng.gen_bool(0.1));
                }
            }
        }
    }
    mask
}

/// Asserts that labelling, blob extraction, histograms and signatures of the
/// packed front end equal the per-pixel reference on `mask`, with the
/// histograms taken over a random frame.
fn assert_front_end_matches(mask: &BinaryImage, frame_seed: u64) {
    let (width, height) = (mask.width(), mask.height());
    let packed = label_components(mask);
    let reference = reference::label_components(mask);
    assert_eq!(packed.component_count(), reference.component_count);
    assert_eq!((packed.width(), packed.height()), (width, height));
    for y in 0..height {
        for x in 0..width {
            assert_eq!(
                packed.label(x, y),
                reference.labels[y * width + x],
                "label at ({x}, {y}) of a {width}x{height} mask"
            );
        }
        assert_eq!(packed.label(width, y), 0);
    }
    assert_eq!(packed.label(0, height), 0);
    assert_eq!(packed.component_sizes(), reference.component_sizes());

    let blobs = extract_blobs(&packed);
    let expected = reference::extract_blobs(&reference);
    assert_eq!(blobs, expected);
    for (blob, want) in blobs.iter().zip(&expected) {
        assert_eq!(blob.centroid.0.to_bits(), want.centroid.0.to_bits());
        assert_eq!(blob.centroid.1.to_bits(), want.centroid.1.to_bits());
    }

    let frame = random_image(width, height, &mut StdRng::seed_from_u64(frame_seed));
    for blob in &blobs {
        let histogram = blob.histogram(&frame);
        assert_eq!(
            histogram,
            reference::masked_histogram(&frame, &blob.silhouette)
        );
        let histogram = histogram.expect("the frame matches the silhouette");
        assert_eq!(histogram.to_signature(), reference::signature(&histogram));
        assert_eq!(blob.signature(&frame), Some(histogram.to_signature()));
    }
}

#[test]
fn empty_and_full_masks_match_at_every_width() {
    for width in WIDTHS {
        for height in [1, 2, 5] {
            let empty = BinaryImage::new(width, height);
            assert_front_end_matches(&empty, 1);
            let mut full = BinaryImage::new(width, height);
            for y in 0..height {
                full.set_run(y, 0..width);
            }
            assert_front_end_matches(&full, 2);
            assert_eq!(label_components(&full).component_count(), 1);
        }
    }
    assert_front_end_matches(&BinaryImage::new(0, 0), 3);
    assert_front_end_matches(&BinaryImage::new(0, 4), 3);
    assert_front_end_matches(&BinaryImage::new(4, 0), 3);
}

#[test]
fn diagonal_chains_match_at_every_width() {
    for width in WIDTHS {
        let height = 9;
        let mut down = BinaryImage::new(width, height);
        let mut up = BinaryImage::new(width, height);
        let mut zigzag = BinaryImage::new(width, height);
        for y in 0..height {
            down.set((y * 7) % width, y, true);
            up.set(width - 1 - (y * 3) % width, y, true);
            zigzag.set_run(y, (y % 2) * 2..(y % 2) * 2 + 1);
            zigzag.set_run(y, width / 2 + (y % 2)..width / 2 + (y % 2) + 1);
        }
        for mask in [&down, &up, &zigzag] {
            assert_front_end_matches(mask, 4);
        }
    }
}

#[test]
fn u_and_w_shapes_match() {
    let shapes: [&[&str]; 4] = [
        &["#...#", "#...#", "#...#", "#####"],
        &["#.#.#", "#.#.#", "#####"],
        &["#.#.#.#", "#.#.#.#", ".#...#.", "..#.#..", "...#..."],
        &["##..##..##", ".#..#...#.", "..##....#.", "........##"],
    ];
    for rows in shapes {
        assert_front_end_matches(&mask_from_rows(rows), 5);
    }
    // The same shapes scaled up so that each arm crosses word boundaries.
    for width in [65, 127, 200] {
        let mut u = BinaryImage::new(width, 6);
        let mut w = BinaryImage::new(width, 6);
        for y in 0..5 {
            u.set_run(y, 0..3);
            u.set_run(y, width - 3..width);
            for arm in 0..5 {
                let x = arm * (width - 1) / 4;
                w.set_run(y, x..x + 1);
            }
        }
        u.set_run(5, 0..width);
        w.set_run(5, 0..width);
        assert_front_end_matches(&u, 6);
        assert_front_end_matches(&w, 7);
        assert_eq!(label_components(&u).component_count(), 1);
        assert_eq!(label_components(&w).component_count(), 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn packed_labelling_blobs_and_histograms_equal_the_reference(
        width_index in 0usize..WIDTHS.len(),
        height in 1usize..9,
        kind in 0u32..7,
        seed in any::<u64>(),
    ) {
        let mask = generated_mask(WIDTHS[width_index], height, kind, seed);
        assert_front_end_matches(&mask, seed ^ 0x5EED);
    }

    #[test]
    fn packed_segmentation_equals_the_reference(
        width_index in 0usize..WIDTHS.len(),
        height in 1usize..6,
        update_foreground in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let forced = Forced::lock();
        for dispatch in Dispatch::available() {
            forced.set(dispatch);
            let mut rng = StdRng::seed_from_u64(seed);
            assert_segmentation_matches(WIDTHS[width_index], height, update_foreground, &mut rng)?;
        }
    }
}

/// Drives a packed and a reference background model through the same random
/// frame sequence, comparing masks, background images and every estimate
/// bit (through their serialised JSON) after each frame.
fn assert_segmentation_matches(
    width: usize,
    height: usize,
    update_foreground: bool,
    rng: &mut StdRng,
) -> Result<(), TestCaseError> {
    // α outside [0, 1] drives estimates below 0 and above 255, where the
    // `as u8` truncation saturates.
    let config = BackgroundConfig {
        learning_rate: [0.0, 0.05, 0.3, 0.5, 1.0, -0.5, 1.5][rng.gen_range(0..7)],
        foreground_threshold: [0, 100, 900, 5000][rng.gen_range(0..4)],
        update_foreground,
    };
    let mut packed = BackgroundModel::new(width, height, config);
    let mut reference = reference::Background::new(width, height, config);
    let base = random_image(width, height, rng);
    for step in 0..rng.gen_range(4..12) {
        // Drifted copies of the base frame with bright rectangles pasted
        // in, now and then a frame of another size.
        let drift: i16 = rng.gen_range(-12..=12);
        let mut frame = RgbImage::from_pixels(
            width,
            height,
            base.pixels().iter().map(|c| c.brightened(drift)).collect(),
        )
        .expect("buffer matches the size");
        for _ in 0..rng.gen_range(0..3) {
            let colour = Rgb::new(rng.gen(), rng.gen(), rng.gen());
            let (x0, y0) = (rng.gen_range(0..width), rng.gen_range(0..height));
            for y in y0..height.min(y0 + rng.gen_range(1..4)) {
                for x in x0..width.min(x0 + rng.gen_range(1..80)) {
                    frame.set(x, y, colour);
                }
            }
        }
        if rng.gen_bool(0.1) {
            frame = RgbImage::new(width + 1, height);
        }
        if step > 0 && rng.gen_bool(0.2) {
            packed.observe_background(&frame);
            reference.observe_background(&frame);
        } else {
            let mask = packed.segment(&frame);
            prop_assert_eq!(&mask, &reference.segment(&frame));
            prop_assert_eq!(
                mask.as_vector().as_words().len(),
                (width * height).div_ceil(64)
            );
        }
        prop_assert_eq!(packed.background_image(), reference.background_image());
        prop_assert_eq!(
            serde_json::to_string(&packed).expect("the model serialises"),
            serde_json::to_string(&reference).expect("the model serialises")
        );
    }
    Ok(())
}

/// The area filter `bsom_dataset::from_scene` applies at this scene scale.
fn scene_min_object_pixels(config: &SceneConfig) -> usize {
    (config.person_width * config.person_height / 4).max(64)
}

/// 300 frames of a populated small scene through the per-pixel composition
/// and, under every dispatch, through `process_frame`, observation for
/// observation.
fn assert_scene_matches(seed: u64) {
    let config = SceneConfig::small();
    let min_pixels = scene_min_object_pixels(&config);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scene = SceneSimulator::new(config.clone(), &mut rng);
    let background: Vec<RgbImage> = (0..10)
        .map(|_| scene.render_background_only(&mut rng))
        .collect();
    let frames: Vec<RgbImage> = (0..300)
        .map(|_| scene.render_frame(&mut rng).image)
        .collect();
    let mut reference = reference::Pipeline::new(config.width, config.height, min_pixels);
    for frame in &background {
        reference.background.observe_background(frame);
    }
    let expected: Vec<_> = frames.iter().map(|f| reference.process_frame(f)).collect();
    let observations: usize = expected.iter().map(Vec::len).sum();
    assert!(
        observations > 50,
        "seed {seed}: only {observations} observations"
    );
    let forced = Forced::lock();
    for dispatch in Dispatch::available() {
        forced.set(dispatch);
        let mut pipeline = SurveillancePipeline::with_config(
            config.width,
            config.height,
            PipelineConfig {
                min_object_pixels: Some(min_pixels),
                ..PipelineConfig::default()
            },
        );
        for frame in &background {
            pipeline.observe_background(frame);
        }
        for (index, (frame, expected)) in frames.iter().zip(&expected).enumerate() {
            let packed = pipeline.process_frame(frame);
            assert_eq!(&packed, expected, "seed {seed}, frame {index}, {dispatch}");
            for (p, e) in packed.iter().zip(expected) {
                assert_eq!(p.centroid.0.to_bits(), e.centroid.0.to_bits());
                assert_eq!(p.centroid.1.to_bits(), e.centroid.1.to_bits());
            }
        }
    }
}

#[test]
fn scene_clip_matches_the_reference_seed_1() {
    assert_scene_matches(1);
}

#[test]
fn scene_clip_matches_the_reference_seed_3() {
    assert_scene_matches(3);
}

#[test]
fn scene_clip_matches_the_reference_seed_201() {
    assert_scene_matches(201);
}

#[test]
fn full_frame_rectangles_match() {
    let mask = generated_mask(160, 120, 5, 77);
    let blobs: Vec<Blob> = extract_blobs(&label_components(&mask));
    let area: usize = blobs.iter().map(|b| b.silhouette.area()).sum();
    assert_eq!(area, mask.count_ones());
    assert_front_end_matches(&mask, 8);
}
