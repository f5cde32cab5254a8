//! Adversarial-input properties for the wire layer: arbitrary bytes,
//! truncated frames, and hostile declared lengths must produce
//! positioned errors (or clean "need more") — never a panic, never an
//! over-read past the cap.

use proptest::prelude::*;
use stbpu_serve::protocol::{ClientMsg, FrameReader, Hello, ServerMsg, MAX_FRAME};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary bytes through the frame splitter: every outcome is a
    /// frame, a "need more", or a positioned error — and any frames that
    /// do come out go through both decoders without panicking.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..4096),
        chunk in 1usize..128,
    ) {
        let mut r = FrameReader::new();
        'outer: for c in bytes.chunks(chunk) {
            r.extend(c);
            loop {
                match r.next_frame() {
                    Ok(Some(body)) => {
                        // Frame bodies decode or error, never panic.
                        let _ = ClientMsg::decode(&body);
                        let _ = ServerMsg::decode(&body);
                    }
                    Ok(None) => break,
                    Err(e) => {
                        // The offset must point inside what we fed.
                        prop_assert!(e.offset <= bytes.len());
                        break 'outer;
                    }
                }
            }
        }
    }

    /// Truncating a valid frame stream at any byte yields the frames
    /// that fit and then a clean "need more" — never an error, never a
    /// phantom frame.
    #[test]
    fn truncated_streams_never_yield_partial_frames(cut_seed in any::<u64>()) {
        let mut wire = Vec::new();
        ClientMsg::Hello(Hello {
            session: 3,
            seed: 9,
            model: "st_skl".to_string(),
            protection: "auto".to_string(),
            workload: "w".to_string(),
            warmup_branches: 100,
            interval: 0,
            threads: 0,
        })
        .encode(&mut wire);
        ClientMsg::TraceChunk { session: 3, bytes: vec![0u8; 100] }.encode(&mut wire);
        ClientMsg::Flush { session: 3 }.encode(&mut wire);
        let cut = (cut_seed % wire.len() as u64) as usize;

        let mut r = FrameReader::new();
        r.extend(&wire[..cut]);
        let mut whole = 0;
        while let Some(body) = r.next_frame().expect("valid prefix never errors") {
            ClientMsg::decode(&body).expect("whole frames decode");
            whole += 1;
        }
        prop_assert!(whole <= 3);
        // Feeding the remainder always completes all three frames.
        r.extend(&wire[cut..]);
        while r.next_frame().expect("completed stream").is_some() {
            whole += 1;
        }
        prop_assert_eq!(whole, 3);
    }

    /// Every declared length above the cap is rejected immediately, for
    /// any hostile length value up to u64::MAX.
    #[test]
    fn hostile_lengths_rejected_before_buffering(extra in any::<u64>()) {
        let hostile = (MAX_FRAME as u64).saturating_add(extra.max(1));
        let mut wire = Vec::new();
        stbpu_bpu::snap::push_varint(&mut wire, hostile);
        let mut r = FrameReader::new();
        r.extend(&wire);
        let e = r.next_frame().expect_err("over-cap length must error");
        prop_assert_eq!(e.offset, 0);
    }
}

/// Mutating any single byte of a valid `Hello` frame body either still
/// decodes (the mutation hit a don't-care bit) or errors — deterministic
/// sweep, no panics, no over-reads.
#[test]
fn hello_single_byte_corruption_never_panics() {
    let mut wire = Vec::new();
    ClientMsg::Hello(Hello {
        session: 200,
        seed: 1,
        model: "st_skl@r=0.05".to_string(),
        protection: "stbpu".to_string(),
        workload: "541.leela".to_string(),
        warmup_branches: 12_000,
        interval: 4_096,
        threads: 4,
    })
    .encode(&mut wire);
    let mut clean = FrameReader::new();
    clean.extend(&wire);
    let body = clean.next_frame().unwrap().unwrap();

    for i in 0..body.len() {
        for flip in [0x01u8, 0x80, 0xff] {
            let mut mutated = body.clone();
            mutated[i] ^= flip;
            let _ = ClientMsg::decode(&mutated); // must not panic
        }
    }
}
