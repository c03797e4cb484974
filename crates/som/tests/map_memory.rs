//! Heap footprint of a map: the packed layer is a [`BSom`]'s only weight
//! store, so a map holds its word rows once and a clone shares every row
//! copy-on-write instead of copying weights.
//!
//! A counting global allocator tallies the bytes each thread asks for, so
//! the figures are the requested sizes (allocator overhead excluded) and
//! tests running in parallel on other threads do not disturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bsom_signature::BinaryVector;
use bsom_som::{BSom, BSomConfig, SelfOrganizingMap, TrainSchedule};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Counting;

thread_local! {
    /// Bytes this thread has allocated, and bytes it has freed.
    static TALLY: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

fn record(allocated: usize, freed: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = TALLY.try_with(|tally| {
        let (a, f) = tally.get();
        tally.set((a + allocated, f + freed));
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), 0);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(allocated, freed)` bytes on this thread while `f` runs, and its result.
fn tally<T>(f: impl FnOnce() -> T) -> (usize, usize, T) {
    let (a0, f0) = TALLY.with(Cell::get);
    let out = f();
    let (a1, f1) = TALLY.with(Cell::get);
    (a1 - a0, f1 - f0, out)
}

/// A paper-shaped map (40 × 768) after a few training steps, and the heap
/// bytes it holds.
fn trained_map() -> (BSom, usize) {
    let mut rng = StdRng::seed_from_u64(0x3E3);
    let inputs: Vec<BinaryVector> = (0..8)
        .map(|_| BinaryVector::random(768, &mut rng))
        .collect();
    let schedule = TrainSchedule::new(inputs.len());
    let (allocated, freed, som) = tally(|| {
        let mut som = BSom::new(BSomConfig::paper_default(), &mut rng);
        for (t, input) in inputs.iter().enumerate() {
            som.train_step(input, t, &schedule).unwrap();
        }
        som
    });
    (som, allocated - freed)
}

#[test]
fn a_map_holds_its_weights_once_and_a_clone_copies_none() {
    let (som, held) = trained_map();
    // 40 neurons x 12 words x 2 planes: the weight words themselves.
    let weight_bytes = 40 * 12 * 2 * 8;
    // The rows (cache-line padded), the row spine, the `#`-count table, the
    // update tables and the scratch; a second per-neuron copy of the
    // weights would add another 7,680 bytes of words plus 40 vectors.
    assert!(
        held < 12 * 1024,
        "a 40 x 768 map holds {held} heap bytes ({weight_bytes} of weight words)"
    );

    let (allocated, _, clone) = tally(|| som.clone());
    assert!(
        allocated < 1024,
        "cloning a 40 x 768 map allocated {allocated} bytes"
    );
    assert_eq!(clone, som);
    assert_eq!(
        clone.packed_layer().shared_row_count(som.packed_layer()),
        som.packed_layer().word_row_count(),
        "the clone shares every word row with the map"
    );
    assert!(clone.packed_layer().shares_counts_with(som.packed_layer()));
}
