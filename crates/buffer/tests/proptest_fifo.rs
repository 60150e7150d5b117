//! Property-based tests: no FIFO configuration, operation interleaving, or
//! resize schedule may ever lose, duplicate, or reorder elements.

use proptest::prelude::*;
use raft_buffer::{fifo_with, BoundedSpsc, FifoConfig, Signal};

/// Ops the "driver" can perform against a FIFO, derived from a proptest
/// strategy. Resize sizes are small so shrink clamping gets exercised.
#[derive(Debug, Clone)]
enum Op {
    Push(u16),
    Pop,
    Resize(u8),
    PeekRangeTry(u8),
    PopRange(u8),
    /// Reserve `n` slots, publish only `fill` of them (partial commit).
    Reserve {
        n: u8,
        fill: u8,
    },
    PopSlice(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => any::<u16>().prop_map(Op::Push),
        4 => Just(Op::Pop),
        1 => any::<u8>().prop_map(Op::Resize),
        1 => (1u8..8).prop_map(Op::PeekRangeTry),
        1 => (1u8..8).prop_map(Op::PopRange),
        2 => ((1u8..8), any::<u8>()).prop_map(|(n, f)| Op::Reserve { n, fill: f % (n + 1) }),
        2 => (1u8..8).prop_map(Op::PopSlice),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Single-threaded op-sequence model check against a VecDeque oracle.
    #[test]
    fn fifo_matches_vecdeque_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let (f, mut p, mut c) = fifo_with::<u16>(FifoConfig {
            initial_capacity: 2,
            max_capacity: 1 << 10,
            min_capacity: 1,
            ..Default::default()
        });
        let mut model = std::collections::VecDeque::new();
        let mut seq = 10_000u16; // distinct marker values for batch writes
        for op in ops {
            match op {
                Op::Push(v) => {
                    if p.try_push(v).is_ok() {
                        model.push_back(v);
                    } else {
                        // only legal failure is Full
                        prop_assert!(f.occupancy() == f.capacity());
                    }
                }
                Op::Pop => {
                    match c.try_pop() {
                        Ok(v) => {
                            prop_assert_eq!(Some(v), model.pop_front());
                        }
                        Err(_) => prop_assert!(model.is_empty()),
                    }
                }
                Op::Resize(sz) => {
                    let newcap = f.resize(sz as usize + 1);
                    prop_assert!(newcap >= f.occupancy());
                }
                Op::PeekRangeTry(n) => {
                    let n = n as usize;
                    // Only peek when satisfiable; otherwise it would block.
                    if model.len() >= n {
                        let w = c.peek_range(n).unwrap();
                        for i in 0..n {
                            prop_assert_eq!(w[i], model[i]);
                        }
                    }
                }
                Op::PopRange(n) => {
                    if !model.is_empty() {
                        let mut out = Vec::new();
                        let got = c.pop_range(n as usize, &mut out).unwrap();
                        prop_assert!(got >= 1 && got <= n as usize);
                        for v in out {
                            prop_assert_eq!(Some(v), model.pop_front());
                        }
                    }
                }
                Op::Reserve { n, fill } => {
                    let n = n as usize;
                    // Only reserve when it can't block: room must exist (or
                    // appear via the n > capacity grow path).
                    if model.len() + n <= f.capacity().max(n) {
                        let mut slice = p.reserve(n).unwrap();
                        prop_assert_eq!(slice.remaining(), n);
                        for _ in 0..fill {
                            slice.push(seq);
                            model.push_back(seq);
                            seq += 1;
                        }
                        // Partial commit: dropping publishes exactly `fill`.
                        drop(slice);
                    }
                }
                Op::PopSlice(n) => {
                    if !model.is_empty() {
                        let got = c
                            .pop_slice(n as usize, |view| {
                                view.iter().copied().collect::<Vec<u16>>()
                            })
                            .unwrap();
                        prop_assert!(!got.is_empty() && got.len() <= n as usize);
                        for v in got {
                            prop_assert_eq!(Some(v), model.pop_front());
                        }
                    }
                }
            }
            prop_assert_eq!(f.occupancy(), model.len());
        }
        // Drain and compare the tail.
        p.close();
        while let Ok(v) = c.try_pop() {
            prop_assert_eq!(Some(v), model.pop_front());
        }
        prop_assert!(model.is_empty());
    }

    /// Cross-thread: all data arrives in order, regardless of capacity and
    /// a concurrent resize storm.
    #[test]
    fn fifo_cross_thread_in_order(
        n in 1usize..5_000,
        cap in 1usize..64,
        resizes in 0usize..20,
    ) {
        let (f, mut p, mut c) = fifo_with::<usize>(FifoConfig {
            initial_capacity: cap,
            max_capacity: 1 << 12,
            min_capacity: 1,
            ..Default::default()
        });
        let monitor = std::thread::spawn(move || {
            for i in 0..resizes {
                let cap = f.capacity();
                f.resize(if i % 2 == 0 { cap * 2 } else { cap / 2 });
                std::thread::yield_now();
            }
        });
        let prod = std::thread::spawn(move || {
            for i in 0..n {
                p.push(i).unwrap();
            }
        });
        let mut expect = 0usize;
        while let Ok(v) = c.pop() {
            assert_eq!(v, expect);
            expect += 1;
        }
        prop_assert_eq!(expect, n);
        prod.join().unwrap();
        monitor.join().unwrap();
    }

    /// Cross-thread with zero-copy batch views on both ends: a reserving
    /// producer and a pop_slice consumer, under a concurrent grow/shrink
    /// storm, still deliver every element exactly once and in order.
    #[test]
    fn fifo_cross_thread_batch_views_in_order(
        n in 1usize..3_000,
        cap in 1usize..64,
        batch in 1usize..16,
        resizes in 0usize..20,
    ) {
        let (f, mut p, mut c) = fifo_with::<usize>(FifoConfig {
            initial_capacity: cap,
            max_capacity: 1 << 12,
            min_capacity: 1,
            ..Default::default()
        });
        let monitor = std::thread::spawn(move || {
            for i in 0..resizes {
                let cap = f.capacity();
                f.resize(if i % 2 == 0 { cap * 2 } else { cap / 2 });
                std::thread::yield_now();
            }
        });
        let prod = std::thread::spawn(move || {
            let mut next = 0usize;
            while next < n {
                let want = batch.min(n - next);
                let mut slice = p.reserve(want).unwrap();
                for _ in 0..want {
                    slice.push(next);
                    next += 1;
                }
            }
        });
        let mut expect = 0usize;
        while expect < n {
            let got = c
                .pop_slice(batch, |view| view.iter().copied().collect::<Vec<usize>>())
                .unwrap();
            for v in got {
                assert_eq!(v, expect);
                expect += 1;
            }
        }
        prop_assert_eq!(expect, n);
        assert!(c.pop_slice(1, |_| ()).is_err(), "stream must be drained");
        prod.join().unwrap();
        monitor.join().unwrap();
    }

    /// Signals never detach from their elements.
    #[test]
    fn signals_stay_attached(values in proptest::collection::vec(any::<u8>(), 1..100)) {
        let (_f, mut p, mut c) = fifo_with::<u8>(FifoConfig::starting_at(4));
        let last = values.len() - 1;
        let prod = std::thread::spawn(move || {
            for (i, v) in values.iter().enumerate() {
                let sig = if i == last { Signal::EoS } else if v % 7 == 0 { Signal::User(*v as u32) } else { Signal::None };
                p.push_signal(*v, sig).unwrap();
            }
            values
        });
        let mut got = Vec::new();
        while let Ok((v, sig)) = c.pop_signal() {
            match sig {
                Signal::User(u) => assert_eq!(u, v as u32),
                Signal::EoS | Signal::None => {}
                other => panic!("unexpected signal {other:?}"),
            }
            got.push((v, sig));
        }
        let values = prod.join().unwrap();
        prop_assert_eq!(got.len(), values.len());
        prop_assert_eq!(got.last().unwrap().1, Signal::EoS);
        for (i, (v, _)) in got.iter().enumerate() {
            prop_assert_eq!(*v, values[i]);
        }
    }

    /// The fixed lock-free SPSC agrees with a model too.
    #[test]
    fn bounded_spsc_model(ops in proptest::collection::vec(op_strategy(), 1..200), cap in 1usize..32) {
        let (mut p, mut c) = BoundedSpsc::<u16>::new(cap);
        let capacity = p.capacity();
        let mut model = std::collections::VecDeque::new();
        for op in ops {
            match op {
                Op::Push(v) => {
                    if p.try_push(v).is_ok() {
                        model.push_back(v);
                    } else {
                        prop_assert_eq!(model.len(), capacity);
                    }
                }
                Op::Pop => match c.try_pop() {
                    Ok(v) => prop_assert_eq!(Some(v), model.pop_front()),
                    Err(_) => prop_assert!(model.is_empty()),
                },
                _ => {} // resize/peek_range not applicable to the fixed ring
            }
            prop_assert_eq!(c.occupancy(), model.len());
        }
    }
}
