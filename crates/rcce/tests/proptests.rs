//! Property-based tests of the RCCE-style communicator: ordering and
//! payload integrity under random traffic, and the MPB chunk model.

use bytes::Bytes;
use proptest::prelude::*;
use scc_rcce::{communicator, MpbConfig};
use std::thread;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn point_to_point_preserves_order_and_payload(
        msgs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..40)
    ) {
        let mut eps = communicator(2, 4, MpbConfig::default());
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let expect = msgs.clone();
        let sender = thread::spawn(move || {
            for m in msgs {
                a.send(1, Bytes::from(m)).unwrap();
            }
        });
        for e in &expect {
            let got = b.recv(0).unwrap();
            prop_assert_eq!(&got[..], &e[..]);
        }
        sender.join().unwrap();
    }

    #[test]
    fn interleaved_sources_stay_independent(
        from_a in prop::collection::vec(any::<u8>(), 1..30),
        from_b in prop::collection::vec(any::<u8>(), 1..30),
    ) {
        let mut eps = communicator(3, 4, MpbConfig::default());
        let c = eps.pop().unwrap();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let (ea, eb) = (from_a.clone(), from_b.clone());
        let ta = thread::spawn(move || {
            for &x in &ea {
                a.send(2, Bytes::from(vec![x])).unwrap();
            }
        });
        let tb = thread::spawn(move || {
            for &x in &eb {
                b.send(2, Bytes::from(vec![x])).unwrap();
            }
        });
        // Receive from each source in its own order, interleaved.
        let (mut ia, mut ib) = (0, 0);
        while ia < from_a.len() || ib < from_b.len() {
            if ia < from_a.len() {
                let got = c.recv(0).unwrap();
                prop_assert_eq!(got[0], from_a[ia]);
                ia += 1;
            }
            if ib < from_b.len() {
                let got = c.recv(1).unwrap();
                prop_assert_eq!(got[0], from_b[ib]);
                ib += 1;
            }
        }
        ta.join().unwrap();
        tb.join().unwrap();
    }

    #[test]
    fn mpb_chunks_monotone_in_payload(a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let mpb = MpbConfig::default();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(mpb.chunks(lo) <= mpb.chunks(hi));
        // Chunk maths consistent with capacity.
        prop_assert!(mpb.chunks(hi) * mpb.payload_per_chunk() >= hi);
    }
}
