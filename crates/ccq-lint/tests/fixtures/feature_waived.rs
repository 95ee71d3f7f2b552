//! Fixture: declared features pass; an undeclared one carries a waiver.

#[cfg(feature = "fault-inject")]
fn declared() {}

// ccq-lint: allow(feature-hygiene) — feature lands in the next PR; gate merged first
#[cfg(feature = "speculative")]
fn speculative() {}
