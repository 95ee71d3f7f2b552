//! Fixture: the sanctioned durable-write idiom — tmp sibling, fsync,
//! rename into place. Mirrors `write_atomic` in
//! `crates/tensor/src/codec.rs`.

use std::fs;
use std::io::Write;
use std::path::Path;

pub fn save_config(dir: &Path, text: &str) -> std::io::Result<()> {
    let tmp = dir.join("config.tmp");
    let mut f = fs::File::create(&tmp)?;
    f.write_all(text.as_bytes())?;
    f.sync_all()?;
    fs::rename(&tmp, dir.join("config"))?;
    Ok(())
}
