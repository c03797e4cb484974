//! Greedy centroid tracking.
//!
//! The paper relies on "a robust tracking algorithm capable of extracting the
//! colour histogram for every moving object" (their references \[3\], \[21\]).
//! For the reproduction a deliberately simple tracker suffices: blobs are
//! matched to existing tracks by nearest centroid within a gating distance,
//! unmatched blobs open new tracks, and tracks that go unseen for a number of
//! frames are retired. The bSOM — not the tracker — is responsible for
//! *identity*; the tracker only provides frame-to-frame continuity, exactly
//! as in the paper's division of labour.

use serde::{Deserialize, Serialize};

use crate::blob::Blob;

/// Identifier of a track maintained by the [`Tracker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TrackId(pub u64);

impl std::fmt::Display for TrackId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "track-{}", self.0)
    }
}

/// Configuration of the greedy centroid tracker.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrackerConfig {
    /// Maximum centroid distance (in pixels) for a blob to be associated with
    /// an existing track.
    pub gating_distance: f64,
    /// Number of consecutive frames a track may go unmatched before it is
    /// retired.
    pub max_missed_frames: usize,
}

impl Default for TrackerConfig {
    fn default() -> Self {
        TrackerConfig {
            gating_distance: 40.0,
            max_missed_frames: 10,
        }
    }
}

/// One tracked object.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Track {
    /// Stable identifier of the track.
    pub id: TrackId,
    /// Last known centroid.
    pub centroid: (f64, f64),
    /// Frame index of the last successful match.
    pub last_seen_frame: u64,
    /// Number of consecutive frames without a match.
    pub missed_frames: usize,
    /// Total number of observations associated with the track.
    pub observations: usize,
}

/// A greedy nearest-centroid multi-object tracker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tracker {
    config: TrackerConfig,
    tracks: Vec<Track>,
    next_id: u64,
    frame_index: u64,
}

impl Tracker {
    /// Creates a tracker with the given configuration.
    pub fn new(config: TrackerConfig) -> Self {
        Tracker {
            config,
            tracks: Vec::new(),
            next_id: 0,
            frame_index: 0,
        }
    }

    /// Creates a tracker with [`TrackerConfig::default`].
    pub fn with_default_config() -> Self {
        Self::new(TrackerConfig::default())
    }

    /// The tracker configuration.
    pub fn config(&self) -> &TrackerConfig {
        &self.config
    }

    /// Currently live tracks.
    pub fn tracks(&self) -> &[Track] {
        &self.tracks
    }

    /// Number of frames processed so far.
    pub fn frames_processed(&self) -> u64 {
        self.frame_index
    }

    /// Associates the blobs of one frame with tracks.
    ///
    /// Returns one `(TrackId, blob_index)` pair per input blob, in blob
    /// order; blobs that opened a new track report that new id. Matching is
    /// greedy: blob/track pairs are considered in order of increasing
    /// centroid distance, closest first, subject to the gating distance.
    pub fn update(&mut self, blobs: &[Blob]) -> Vec<(TrackId, usize)> {
        let frame = self.frame_index;
        self.frame_index += 1;

        // All candidate (distance, track_idx, blob_idx) pairs within the gate.
        let mut candidates: Vec<(f64, usize, usize)> = Vec::new();
        for (ti, track) in self.tracks.iter().enumerate() {
            for (bi, blob) in blobs.iter().enumerate() {
                let dx = track.centroid.0 - blob.centroid.0;
                let dy = track.centroid.1 - blob.centroid.1;
                let d = (dx * dx + dy * dy).sqrt();
                if d <= self.config.gating_distance {
                    candidates.push((d, ti, bi));
                }
            }
        }
        candidates.sort_by(|a, b| a.0.total_cmp(&b.0));

        let mut track_taken = vec![false; self.tracks.len()];
        let mut blob_taken = vec![false; blobs.len()];
        let mut assignment: Vec<Option<usize>> = vec![None; blobs.len()];
        for (_, ti, bi) in candidates {
            if track_taken[ti] || blob_taken[bi] {
                continue;
            }
            track_taken[ti] = true;
            blob_taken[bi] = true;
            assignment[bi] = Some(ti);
        }

        // Update matched tracks, create new tracks for unmatched blobs.
        let mut result = Vec::with_capacity(blobs.len());
        for (bi, blob) in blobs.iter().enumerate() {
            match assignment[bi] {
                Some(ti) => {
                    let track = &mut self.tracks[ti];
                    track.centroid = blob.centroid;
                    track.last_seen_frame = frame;
                    track.missed_frames = 0;
                    track.observations += 1;
                    result.push((track.id, bi));
                }
                None => {
                    let id = TrackId(self.next_id);
                    self.next_id += 1;
                    self.tracks.push(Track {
                        id,
                        centroid: blob.centroid,
                        last_seen_frame: frame,
                        missed_frames: 0,
                        observations: 1,
                    });
                    result.push((id, bi));
                }
            }
        }

        // Age unmatched tracks and retire stale ones.
        let max_missed = self.config.max_missed_frames;
        for (ti, track) in self.tracks.iter_mut().enumerate() {
            if ti < track_taken.len() && track_taken[ti] {
                continue;
            }
            if track.last_seen_frame != frame {
                track.missed_frames += 1;
            }
        }
        self.tracks.retain(|t| t.missed_frames <= max_missed);

        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blob::BoundingBox;

    fn blob_at(x: f64, y: f64) -> Blob {
        Blob {
            component: 1,
            area: 1000,
            bbox: BoundingBox {
                min_x: x as usize,
                min_y: y as usize,
                max_x: x as usize + 10,
                max_y: y as usize + 10,
            },
            centroid: (x, y),
            frame_size: (0, 0),
            runs: Vec::new(),
        }
    }

    #[test]
    fn first_frame_creates_one_track_per_blob() {
        let mut tracker = Tracker::with_default_config();
        let ids = tracker.update(&[blob_at(10.0, 10.0), blob_at(100.0, 100.0)]);
        assert_eq!(ids.len(), 2);
        assert_ne!(ids[0].0, ids[1].0);
        assert_eq!(tracker.tracks().len(), 2);
    }

    #[test]
    fn nearby_blob_keeps_the_same_track_id() {
        let mut tracker = Tracker::with_default_config();
        let first = tracker.update(&[blob_at(10.0, 10.0)]);
        let second = tracker.update(&[blob_at(14.0, 12.0)]);
        assert_eq!(first[0].0, second[0].0);
        assert_eq!(tracker.tracks()[0].observations, 2);
    }

    #[test]
    fn distant_blob_opens_a_new_track() {
        let mut tracker = Tracker::with_default_config();
        let first = tracker.update(&[blob_at(10.0, 10.0)]);
        let second = tracker.update(&[blob_at(500.0, 500.0)]);
        assert_ne!(first[0].0, second[0].0);
        assert_eq!(tracker.tracks().len(), 2);
    }

    #[test]
    fn two_objects_keep_distinct_identities_when_both_move() {
        let mut tracker = Tracker::with_default_config();
        let f1 = tracker.update(&[blob_at(10.0, 10.0), blob_at(200.0, 10.0)]);
        let f2 = tracker.update(&[blob_at(15.0, 12.0), blob_at(195.0, 14.0)]);
        assert_eq!(f1[0].0, f2[0].0);
        assert_eq!(f1[1].0, f2[1].0);
        assert_ne!(f2[0].0, f2[1].0);
    }

    #[test]
    fn greedy_matching_prefers_closest_pair() {
        let mut tracker = Tracker::with_default_config();
        tracker.update(&[blob_at(0.0, 0.0), blob_at(30.0, 0.0)]);
        // Both new blobs are within gating range of both tracks; the closest
        // pairs are (track0, blob at 2) and (track1, blob at 28).
        let ids = tracker.update(&[blob_at(28.0, 0.0), blob_at(2.0, 0.0)]);
        let t0 = tracker.tracks()[0].id;
        let t1 = tracker.tracks()[1].id;
        assert_eq!(ids[0].0, t1);
        assert_eq!(ids[1].0, t0);
    }

    #[test]
    fn track_is_retired_after_max_missed_frames() {
        let config = TrackerConfig {
            gating_distance: 40.0,
            max_missed_frames: 2,
        };
        let mut tracker = Tracker::new(config);
        tracker.update(&[blob_at(10.0, 10.0)]);
        assert_eq!(tracker.tracks().len(), 1);
        for _ in 0..3 {
            tracker.update(&[]);
        }
        assert!(tracker.tracks().is_empty());
    }

    #[test]
    fn reappearing_object_gets_a_new_track_after_retirement() {
        let config = TrackerConfig {
            gating_distance: 40.0,
            max_missed_frames: 1,
        };
        let mut tracker = Tracker::new(config);
        let first = tracker.update(&[blob_at(10.0, 10.0)]);
        tracker.update(&[]);
        tracker.update(&[]);
        let second = tracker.update(&[blob_at(10.0, 10.0)]);
        assert_ne!(first[0].0, second[0].0);
    }

    #[test]
    fn frames_processed_counts_updates() {
        let mut tracker = Tracker::with_default_config();
        assert_eq!(tracker.frames_processed(), 0);
        tracker.update(&[]);
        tracker.update(&[blob_at(1.0, 1.0)]);
        assert_eq!(tracker.frames_processed(), 2);
    }

    #[test]
    fn track_id_display() {
        assert_eq!(TrackId(7).to_string(), "track-7");
    }
}
