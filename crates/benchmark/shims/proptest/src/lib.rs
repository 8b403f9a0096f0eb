//! Resolution-only stand-in: nothing the benchmark builds uses this crate.
