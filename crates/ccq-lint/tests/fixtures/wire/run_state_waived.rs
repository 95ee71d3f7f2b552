//! Fixture: a section tag reserved on purpose. `TAG_ZERO` is written
//! ahead of a reader that will match it, and the standalone wire-drift
//! waiver records why the asymmetry is intended, so the file lints
//! clean.

const TAG_HEDGE: u8 = 0x01;
// ccq-lint: allow(wire-drift) — reserved: written now, decoded by the next format version
const TAG_ZERO: u8 = 0x02;

pub fn to_bytes(state: &State, out: &mut Vec<u8>) {
    match state {
        State::Hedge => out.push(TAG_HEDGE),
        State::Zero => out.push(TAG_ZERO),
    }
}

pub fn from_bytes(b: &[u8]) -> Result<State, DecodeError> {
    match b.first() {
        Some(&TAG_HEDGE) => Ok(State::Hedge),
        _ => Err(DecodeError::Truncated),
    }
}
