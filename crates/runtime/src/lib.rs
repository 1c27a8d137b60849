//! Execution runtime shared by the whole EdgeTune workspace.
//!
//! Two concerns live here, deliberately below every domain crate.
//! Time is not one of them: simulated time is a `Seconds` the component
//! that owns it adds up (the evaluator's study clock, the serving
//! loop's makespan), and host time is measured from outside with
//! `std::time::Instant` — there is no clock object to inject.
//!
//! * **Deterministic parallelism** — [`parallel_map_ordered`], a scoped
//!   worker pool that fans independent work items out over real OS
//!   threads and merges the results back in input order. Thread
//!   interleaving affects wall-clock duration only; the returned vector
//!   is bit-identical to a sequential map, which is what lets the tuning
//!   engine scale with cores while reports stay byte-identical per seed.
//! * **Pipe framing** — the [`frame`] codec: length-prefixed,
//!   CRC-checksummed message frames for processes talking over raw
//!   pipes, with torn writes and truncation surfacing as clean
//!   [`FrameError`]s instead of hangs or panics.

pub mod frame;
pub mod pool;

pub use frame::{
    crc32, encode_frame, read_frame, write_frame, Frame, FrameError, FrameKind, MAX_FRAME_LEN,
};
pub use pool::parallel_map_ordered;
