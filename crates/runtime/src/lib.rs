//! The frame codec shared by the whole EdgeTune workspace.
//!
//! One concern lives here, deliberately below every domain crate:
//! **stream framing** — the [`frame`] codec: length-prefixed,
//! CRC-checksummed message frames for processes talking over raw
//! sockets, with torn writes and truncation surfacing as clean
//! [`FrameError`]s instead of hangs or panics.
//!
//! Time does not live here: simulated time is a `Seconds` the component
//! that owns it adds up (the evaluator's study clock, the serving loop's
//! makespan), and host time is measured from outside with
//! `std::time::Instant` — there is no clock object to inject. Neither
//! does a thread pool: the shard fabric spawns one scoped thread per
//! shard itself.

pub mod frame;

pub use frame::{
    crc32, encode_frame, read_frame, write_frame, Frame, FrameError, FrameKind, MAX_FRAME_LEN,
};
