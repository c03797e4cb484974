//! Running-average background subtraction.
//!
//! The paper's upstream pipeline performs "background differencing" to find
//! moving objects. This module implements the standard running-average model:
//! a per-pixel background estimate updated as
//! `B ← (1 − α)·B + α·I` on frames (or regions) considered background, with a
//! pixel flagged as foreground when its squared colour distance from the
//! estimate exceeds a threshold.
//!
//! The estimate is three `f64` planes, one per channel, and the per-pixel
//! step is the dispatched [`segment_background`] kernel, whose AVX-512 arm
//! takes eight pixels at a time bit-identically to its scalar walk (DESIGN.md
//! §"The packed vision front end").

use bsom_signature::{segment_background, BinaryImage, Rgb, RgbImage};
use serde::{Deserialize, Serialize};

/// Configuration of the running-average background model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BackgroundConfig {
    /// Learning rate α of the running average, in `[0, 1]`.
    pub learning_rate: f64,
    /// Squared RGB distance above which a pixel is declared foreground.
    pub foreground_threshold: u32,
    /// Whether foreground pixels also update the background (slowly absorbs
    /// stopped objects); the default is `false`, matching a surveillance
    /// setting where loitering objects must stay detected.
    pub update_foreground: bool,
}

impl Default for BackgroundConfig {
    fn default() -> Self {
        BackgroundConfig {
            learning_rate: 0.05,
            foreground_threshold: 900, // ~17 grey levels of combined change
            update_foreground: false,
        }
    }
}

/// A per-pixel running-average background model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackgroundModel {
    config: BackgroundConfig,
    width: usize,
    height: usize,
    /// Background estimate of the red channel per pixel, row-major, stored
    /// as f64 for the running average.
    red: Vec<f64>,
    /// Background estimate of the green channel, laid out as `red`.
    green: Vec<f64>,
    /// Background estimate of the blue channel, laid out as `red`.
    blue: Vec<f64>,
    initialised: bool,
}

impl BackgroundModel {
    /// Creates an empty model for frames of the given size.
    pub fn new(width: usize, height: usize, config: BackgroundConfig) -> Self {
        BackgroundModel {
            config,
            width,
            height,
            red: vec![0.0; width * height],
            green: vec![0.0; width * height],
            blue: vec![0.0; width * height],
            initialised: false,
        }
    }

    /// Creates a model with the default configuration.
    pub fn with_default_config(width: usize, height: usize) -> Self {
        Self::new(width, height, BackgroundConfig::default())
    }

    /// The model configuration.
    pub fn config(&self) -> &BackgroundConfig {
        &self.config
    }

    /// Frame width the model expects.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height the model expects.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Returns `true` once at least one frame has been absorbed.
    pub fn is_initialised(&self) -> bool {
        self.initialised
    }

    /// The current background estimate rendered as an image (zeroes before
    /// initialisation).
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

    /// Absorbs a frame assumed to contain only background (e.g. the warm-up
    /// frames before any person enters). The first frame initialises the
    /// estimate directly.
    ///
    /// Frames of the wrong size are ignored.
    pub fn observe_background(&mut self, frame: &RgbImage) {
        if frame.width() != self.width || frame.height() != self.height {
            return;
        }
        if !self.initialised {
            for (i, c) in frame.pixels().iter().enumerate() {
                self.red[i] = f64::from(c.r);
                self.green[i] = f64::from(c.g);
                self.blue[i] = f64::from(c.b);
            }
            self.initialised = true;
            return;
        }
        // The segmentation step with nothing held back; its mask is unused.
        self.step(frame, false);
    }

    /// Segments a frame: returns the foreground mask and updates the model
    /// according to the configuration (background pixels always update;
    /// foreground pixels update only if `update_foreground` is set).
    ///
    /// A frame of the wrong size yields an empty (all-background) mask.
    ///
    /// The mask is written 64 pixels to a word in row-major pixel order, so
    /// rows straddle words (see DESIGN.md §"The packed vision front end").
    pub fn segment(&mut self, frame: &RgbImage) -> BinaryImage {
        if frame.width() != self.width || frame.height() != self.height {
            return BinaryImage::new(self.width, self.height);
        }
        if !self.initialised {
            // With no background knowledge, treat the first frame as
            // background rather than declaring everything foreground.
            self.observe_background(frame);
            return BinaryImage::new(self.width, self.height);
        }
        let words = self.step(frame, !self.config.update_foreground);
        BinaryImage::from_row_major_words(self.width, self.height, words)
    }

    /// One running-average step over the estimate planes through the
    /// dispatched [`segment_background`] kernel; returns the mask words.
    fn step(&mut self, frame: &RgbImage, hold_foreground: bool) -> Vec<u64> {
        segment_background(
            frame.pixels(),
            [&mut self.red, &mut self.green, &mut self.blue],
            self.config.learning_rate,
            self.config.foreground_threshold,
            hold_foreground,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_frame(w: usize, h: usize, colour: Rgb) -> RgbImage {
        RgbImage::filled(w, h, colour)
    }

    #[test]
    fn first_frame_initialises_estimate() {
        let mut model = BackgroundModel::with_default_config(8, 8);
        assert!(!model.is_initialised());
        model.observe_background(&flat_frame(8, 8, Rgb::new(100, 110, 120)));
        assert!(model.is_initialised());
        let bg = model.background_image();
        assert_eq!(bg.pixel(3, 3), Rgb::new(100, 110, 120));
    }

    #[test]
    fn static_scene_produces_no_foreground() {
        let mut model = BackgroundModel::with_default_config(8, 8);
        let frame = flat_frame(8, 8, Rgb::new(60, 60, 60));
        model.observe_background(&frame);
        let mask = model.segment(&frame);
        assert_eq!(mask.count_ones(), 0);
    }

    #[test]
    fn changed_pixels_are_flagged_as_foreground() {
        let mut model = BackgroundModel::with_default_config(8, 8);
        model.observe_background(&flat_frame(8, 8, Rgb::new(50, 50, 50)));
        let mut frame = flat_frame(8, 8, Rgb::new(50, 50, 50));
        frame.set(2, 3, Rgb::new(250, 20, 20));
        frame.set(3, 3, Rgb::new(250, 20, 20));
        let mask = model.segment(&frame);
        assert_eq!(mask.count_ones(), 2);
        assert_eq!(mask.get(2, 3), Some(true));
        assert_eq!(mask.get(3, 3), Some(true));
        assert_eq!(mask.get(4, 4), Some(false));
    }

    #[test]
    fn small_changes_below_threshold_are_ignored() {
        let mut model = BackgroundModel::with_default_config(4, 4);
        model.observe_background(&flat_frame(4, 4, Rgb::new(100, 100, 100)));
        let frame = flat_frame(4, 4, Rgb::new(104, 100, 97));
        let mask = model.segment(&frame);
        assert_eq!(mask.count_ones(), 0);
    }

    #[test]
    fn background_adapts_to_gradual_lighting_change() {
        let mut model = BackgroundModel::new(
            4,
            4,
            BackgroundConfig {
                learning_rate: 0.5,
                ..BackgroundConfig::default()
            },
        );
        model.observe_background(&flat_frame(4, 4, Rgb::new(100, 100, 100)));
        // Drift the scene brighter in small steps; the model should follow
        // and keep reporting background.
        for step in 1..=10 {
            let c = 100 + step * 2;
            let mask = model.segment(&flat_frame(4, 4, Rgb::new(c, c, c)));
            assert_eq!(mask.count_ones(), 0, "step {step}");
        }
        let bg = model.background_image();
        assert!(bg.pixel(0, 0).r > 110);
    }

    #[test]
    fn foreground_not_absorbed_by_default() {
        let mut model = BackgroundModel::with_default_config(4, 4);
        model.observe_background(&flat_frame(4, 4, Rgb::new(10, 10, 10)));
        let person = flat_frame(4, 4, Rgb::new(200, 0, 0));
        for _ in 0..20 {
            let mask = model.segment(&person);
            assert_eq!(mask.count_ones(), 16);
        }
    }

    #[test]
    fn foreground_absorbed_when_configured() {
        let mut model = BackgroundModel::new(
            4,
            4,
            BackgroundConfig {
                learning_rate: 0.5,
                update_foreground: true,
                ..BackgroundConfig::default()
            },
        );
        model.observe_background(&flat_frame(4, 4, Rgb::new(10, 10, 10)));
        let parked = flat_frame(4, 4, Rgb::new(200, 0, 0));
        let mut last = 16;
        for _ in 0..30 {
            last = model.segment(&parked).count_ones();
        }
        assert_eq!(last, 0, "a parked object should eventually be absorbed");
    }

    #[test]
    fn wrong_size_frames_are_ignored() {
        let mut model = BackgroundModel::with_default_config(8, 8);
        model.observe_background(&flat_frame(4, 4, Rgb::WHITE));
        assert!(!model.is_initialised());
        let mask = model.segment(&flat_frame(4, 4, Rgb::WHITE));
        assert_eq!(mask.count_ones(), 0);
        assert_eq!(mask.width(), 8);
    }

    #[test]
    fn uninitialised_segment_treats_first_frame_as_background() {
        let mut model = BackgroundModel::with_default_config(4, 4);
        let frame = flat_frame(4, 4, Rgb::new(90, 90, 90));
        let mask = model.segment(&frame);
        assert_eq!(mask.count_ones(), 0);
        assert!(model.is_initialised());
    }
}
