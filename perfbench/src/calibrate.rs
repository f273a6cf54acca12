//! Host-speed calibration.
//!
//! On a shared host the same slice of work can take twice as long from
//! one minute to the next while CPU time tracks wall time: the slowdown
//! comes from outside the process, not from waiting. Before every timed
//! slice the benchmark therefore times a fixed reference kernel and
//! divides the slice's times by the kernel's slowdown against its nominal
//! time. The kernel is this file's own code, built only on the standard
//! library — an event loop over a heap and an ordered map, a hash map of
//! formatted names, small sorts, strings and float lanes, the mix of work
//! the simulator and the corpus generator do — so no change to the
//! program can move it: a faster or slower program still reads faster or
//! slower, while most of a slower host divides out. Over twenty minutes
//! of shifting host speed this kernel tracked the fleet, lint and corpus
//! work more closely than a bare event loop or a memory-bound scan did.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::time::Instant;

/// The kernel's time on an uncontended 2.1 GHz Xeon vCPU, seconds.
/// Calibrated figures read as if every slice ran at that speed.
const NOMINAL_S: f64 = 0.011;

/// How much slower than nominal the host runs right now (`> 1` is
/// slower): the reference kernel's time over its nominal time.
pub fn host_factor() -> f64 {
    let started = Instant::now();
    kernel();
    started.elapsed().as_secs_f64() / NOMINAL_S
}

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// 100,000 events over 64 entities: pop the next timer, update the
/// entity's accumulator, list and label, decay its float lanes, count a
/// formatted name every 8th event, sort and print a small batch every
/// 64th, and schedule the entity's successor.
fn kernel() {
    const ENTITIES: u32 = 64;
    const LANES: usize = 8;
    let mut timers = BinaryHeap::new();
    let mut entities = BTreeMap::new();
    for entity in 0..ENTITIES {
        entities.insert(entity, (0.0, Vec::new(), format!("com.app.{entity}")));
        timers.push((Reverse(mix(u64::from(entity)) % 1_000), entity));
    }
    let mut lanes = vec![0.0f64; ENTITIES as usize * LANES];
    let mut names: HashMap<String, u64> = HashMap::new();
    let mut batch: Vec<u64> = Vec::with_capacity(256);
    for step in 0..100_000u64 {
        let Some((Reverse(at), entity)) = timers.pop() else {
            break;
        };
        let r = mix(at ^ step);
        if let Some((energy, recent, label)) = entities.get_mut(&entity) {
            *energy += (r % 100) as f64 * 0.01;
            recent.push((r % 7) as u32);
            if recent.len() > 32 {
                recent.clear();
            }
            if r.is_multiple_of(50) {
                *label = format!("{}:{}", label.len() % 9, r % 13);
            }
        }
        let base = entity as usize * LANES;
        for (k, lane) in lanes[base..base + LANES].iter_mut().enumerate() {
            *lane = *lane * 0.99 + ((r >> k) & 1) as f64;
        }
        if step.is_multiple_of(8) {
            *names
                .entry(format!("pkg.{}.{entity}", r % 4_096))
                .or_default() += 1;
            if names.len() > 4_096 {
                names.clear();
            }
        }
        if step.is_multiple_of(64) {
            batch.clear();
            batch.extend((0..256).map(|i| mix(r ^ i)));
            batch.sort_unstable();
            let printed: Vec<String> = batch.iter().take(8).map(u64::to_string).collect();
            std::hint::black_box(printed.join(",").parse::<f64>().is_ok());
        }
        timers.push((
            Reverse(at + 1 + r % 500),
            (entity + (r % 3) as u32) % ENTITIES,
        ));
    }
    std::hint::black_box((&lanes, &entities, &names));
}
