//! Property-based tests of the kernel substrate.

use ea_sim::{BinderBus, CpuScheduler, EventQueue, Pid, ProcessTable, SimDuration, SimTime, Uid};
use proptest::prelude::*;

proptest! {
    #[test]
    fn event_queue_pops_in_time_then_fifo_order(
        times in proptest::collection::vec(0u64..1_000, 1..200)
    ) {
        let mut queue = EventQueue::new();
        for (index, &time) in times.iter().enumerate() {
            queue.schedule(SimTime::from_millis(time), index);
        }
        let mut last: Option<(SimTime, u64)> = None;
        while let Some(event) = queue.pop_next() {
            if let Some((time, seq)) = last {
                prop_assert!(event.at >= time);
                if event.at == time {
                    prop_assert!(event.seq > seq, "FIFO among equal timestamps");
                }
            }
            last = Some((event.at, event.seq));
        }
    }

    #[test]
    fn scheduler_never_exceeds_capacity_and_is_proportional(
        demands in proptest::collection::vec(0.0f64..2.0, 1..20),
        cores in 0.5f64..8.0
    ) {
        let mut sched = CpuScheduler::new(cores);
        for (index, &demand) in demands.iter().enumerate() {
            sched.set_demand(Pid::from_raw(index as u32 + 1), demand);
        }
        let slices = sched.utilizations();
        let total: f64 = slices.iter().map(|slice| slice.utilization).sum();
        prop_assert!(total <= cores + 1e-9);
        for slice in &slices {
            prop_assert!(slice.utilization >= 0.0);
            prop_assert!(slice.utilization <= sched.demand_of(slice.pid) + 1e-9,
                "no process gets more than it asked for");
        }
        // Proportionality: granted utilizations preserve demand ordering.
        for a in &slices {
            for b in &slices {
                if sched.demand_of(a.pid) > sched.demand_of(b.pid) {
                    prop_assert!(a.utilization >= b.utilization - 1e-9);
                }
            }
        }
    }

    #[test]
    fn process_table_death_notices_fire_exactly_once(
        kills in proptest::collection::vec(any::<bool>(), 1..50)
    ) {
        let mut table = ProcessTable::new();
        let pids: Vec<Pid> = (0..kills.len())
            .map(|index| table.spawn(Uid::from_raw(10_000 + index as u32), "p", SimTime::ZERO))
            .collect();
        let mut expected = 0usize;
        for (pid, &kill) in pids.iter().zip(&kills) {
            if kill {
                table.kill(*pid, SimTime::from_secs(1)).unwrap();
                expected += 1;
            }
        }
        prop_assert_eq!(table.drain_deaths().len(), expected);
        prop_assert!(table.drain_deaths().is_empty());
        prop_assert_eq!(table.live_count(), kills.len() - expected);
    }

    #[test]
    fn binder_links_fire_once_per_death(
        cookie_count in 1usize..20
    ) {
        let mut table = ProcessTable::new();
        let mut bus = BinderBus::new();
        let watched = table.spawn(Uid::FIRST_APP, "w", SimTime::ZERO);
        for cookie in 0..cookie_count as u64 {
            bus.link_to_death(watched, cookie);
        }
        table.kill(watched, SimTime::ZERO).unwrap();
        let deaths = table.drain_deaths();
        let fired = bus.dispatch_deaths(&deaths);
        prop_assert_eq!(fired.len(), cookie_count);
        prop_assert!(bus.dispatch_deaths(&deaths).is_empty());
    }

    #[test]
    fn time_arithmetic_round_trips(
        base in 0u64..1_000_000,
        delta in 0u64..1_000_000
    ) {
        let start = SimTime::from_millis(base);
        let later = start + SimDuration::from_millis(delta);
        prop_assert_eq!(later - start, SimDuration::from_millis(delta));
        prop_assert_eq!(later.saturating_since(start).as_millis(), delta);
        prop_assert!(start.checked_since(later).is_none() || delta == 0);
    }
}
