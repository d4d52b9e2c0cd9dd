//! A fixed reference kernel that measures how fast the host runs right now.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts by
//! up to 1.5x for minutes at a time. The drift is not stolen time (process
//! CPU time drifts with wall time), so it moves every piece of code, and
//! whole runs move together. The timed loop therefore runs this kernel
//! every [`EVERY_MS`] between its samples, and the time-based end-to-end
//! metrics are reported in kernel units (`ku`): a sample's time divided by
//! the run's median kernel time. A change to the program moves the sample
//! and not the kernel; a change of host speed moves both.
//!
//! The kernel runs none of the program's code. It does the kinds of work
//! the workloads do: allocation and pointer chasing through a shared tree
//! and an ordered map (the compiler's terms and tables) and a byte loop
//! over 1 MiB (the generated code). It is the same for every seed.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::stats::{median, Rng};

/// Depth of the shared tree built per kernel run.
const TREE_DEPTH: u32 = 12;

/// Ordered-map entries per kernel run.
const MAP_KEYS: usize = 16_000;

/// Bytes of the byte loop per kernel run.
const BYTES: usize = 1 << 20;

/// Least time between two kernel runs in the timed loop.
pub const EVERY_MS: u64 = 200;

enum Node {
    Leaf(u64),
    Pair(Arc<Node>, Arc<Node>),
}

fn build(depth: u32, seed: u64) -> Arc<Node> {
    if depth == 0 {
        Arc::new(Node::Leaf(seed))
    } else {
        let l = build(depth - 1, seed.wrapping_mul(31).wrapping_add(1));
        let r = build(depth - 1, seed.wrapping_mul(37).wrapping_add(2));
        Arc::new(Node::Pair(l, r))
    }
}

fn fold(n: &Node) -> u64 {
    match n {
        Node::Leaf(v) => *v,
        Node::Pair(l, r) => fold(l).rotate_left(5) ^ fold(r),
    }
}

/// The kernel and the times it took in this run.
pub struct Calibrator {
    keys: Vec<u64>,
    bytes: Vec<u8>,
    nanos: Vec<f64>,
    last: Instant,
}

impl Calibrator {
    /// The kernel's fixed inputs, and one untimed warm-up run.
    pub fn new() -> Calibrator {
        let mut rng = Rng::new(0xCA11, 0xB);
        let c = Calibrator {
            keys: (0..MAP_KEYS).map(|_| rng.next_u64()).collect(),
            bytes: (0..BYTES).map(|_| rng.next_u64() as u8).collect(),
            nanos: Vec::new(),
            last: Instant::now(),
        };
        std::hint::black_box(c.kernel());
        c
    }

    fn kernel(&self) -> u64 {
        let tree = build(TREE_DEPTH, 7);
        let mut acc = fold(&tree);
        let mut map = BTreeMap::new();
        for (i, &k) in self.keys.iter().enumerate() {
            map.insert(k, vec![i as u64; 2]);
        }
        for &k in self.keys.iter().rev() {
            acc = acc.wrapping_add(map.get(&k).map_or(0, |v| v[0]));
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in std::hint::black_box(&self.bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        acc ^ h
    }

    /// Runs and times the kernel once.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        std::hint::black_box(self.kernel());
        self.last = Instant::now();
        self.nanos.push((self.last - t0).as_nanos() as f64);
    }

    /// Runs the kernel if [`EVERY_MS`] have passed since it last ran.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= Duration::from_millis(EVERY_MS) {
            self.sample();
        }
    }

    /// The median kernel time of this run, in milliseconds.
    pub fn kernel_ms(&self) -> f64 {
        median(&self.nanos) / 1e6
    }

    /// Kernel runs so far.
    pub fn runs(&self) -> usize {
        self.nanos.len()
    }
}
