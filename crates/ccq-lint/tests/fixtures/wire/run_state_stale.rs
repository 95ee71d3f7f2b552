//! Fixture: a wire-drift waiver that suppresses nothing — both tags are
//! written and read, so the waiver itself must be flagged stale.

const TAG_HEDGE: u8 = 0x01;
// ccq-lint: allow(wire-drift) — left over from when the reader lagged
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
        Some(&TAG_ZERO) => Ok(State::Zero),
        _ => Err(DecodeError::Truncated),
    }
}
