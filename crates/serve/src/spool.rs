//! The spool: a directory-per-state job queue on the local filesystem.
//!
//! ```text
//! <root>/
//!   pending/      <id>.job [+ <id>.status]          enqueued, unclaimed
//!   running/      <id>.job + status/state/events    claimed by a worker
//!   done/         <id>.job + artifacts + report     finished successfully
//!   failed/       <id>.job + artifacts              permanent, non-retryable
//!   quarantined/  <id>.job + artifacts              diverged / retries spent
//!   stop          (sentinel)                        graceful-shutdown request
//!   metrics.txt                                     last daemon's counters
//! ```
//!
//! The `.job` file's directory is the single source of truth for a job's
//! state. Every state transition is an atomic same-filesystem `rename`
//! followed by parent-directory fsyncs; sidecar artifacts move first and
//! the `.job` file moves **last**, so a crash mid-transition leaves the
//! job in its old state with (at worst) stale sidecars at the
//! destination — which the next run simply overwrites. Deterministic
//! workers make that safe: restarting a job from scratch reproduces the
//! same bytes it would have produced without the crash.

use crate::error::{io_err, Result, ServeError};
use crate::spec::JobSpec;
use ccq_tensor::codec;
use std::fs;
use std::path::{Path, PathBuf};

/// The five job states, each backed by a directory under the root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Enqueued, waiting for a worker.
    Pending,
    /// Claimed by a worker (or orphaned by a crash — reclaimed on restart).
    Running,
    /// Finished successfully.
    Done,
    /// Permanent failure (bad spec, non-retryable error).
    Failed,
    /// Diverged or exhausted its retry budget; needs human attention.
    Quarantined,
}

impl Dir {
    /// All states in scan order.
    pub const ALL: [Dir; 5] = [
        Dir::Pending,
        Dir::Running,
        Dir::Done,
        Dir::Failed,
        Dir::Quarantined,
    ];

    /// The directory name under the spool root.
    pub fn name(self) -> &'static str {
        match self {
            Dir::Pending => "pending",
            Dir::Running => "running",
            Dir::Done => "done",
            Dir::Failed => "failed",
            Dir::Quarantined => "quarantined",
        }
    }
}

/// Sidecar artifacts that travel with a job's `.job` file, in the order
/// they are moved during a state transition (the `.job` itself moves
/// last, outside this list).
const SIDECARS: [&str; 7] = [
    ".status",
    ".ccqruns",
    ".ccqruns.prev",
    ".events.jsonl",
    ".report.txt",
    ".ccqpack",
    ".ccqpack.prev",
];

/// Handle to a spool root. Cheap to clone; owns no file descriptors.
#[derive(Debug, Clone)]
pub struct Spool {
    root: PathBuf,
}

impl Spool {
    /// Wraps `root` without touching the filesystem; call
    /// [`Spool::init`] (or the CLI's `init`) to create the layout.
    pub fn new(root: impl Into<PathBuf>) -> Spool {
        Spool { root: root.into() }
    }

    /// The spool root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Creates the root and all state directories (idempotent).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] if a directory cannot be created.
    pub fn init(&self) -> Result<()> {
        for d in Dir::ALL {
            let p = self.dir(d);
            fs::create_dir_all(&p).map_err(|e| io_err("create dir", &p, e))?;
        }
        Ok(())
    }

    /// Path of a state directory.
    pub fn dir(&self, d: Dir) -> PathBuf {
        self.root.join(d.name())
    }

    /// Path of a job's `.job` spec file in state `d`.
    pub fn job_path(&self, d: Dir, id: &str) -> PathBuf {
        self.dir(d).join(format!("{id}.job"))
    }

    /// Path of a job's status sidecar in state `d`.
    pub fn status_path(&self, d: Dir, id: &str) -> PathBuf {
        self.dir(d).join(format!("{id}.status"))
    }

    /// Path of a job's `RunState` autosave in state `d`.
    pub fn state_path(&self, d: Dir, id: &str) -> PathBuf {
        self.dir(d).join(format!("{id}.ccqruns"))
    }

    /// Path of a job's event JSONL stream in state `d`.
    pub fn events_path(&self, d: Dir, id: &str) -> PathBuf {
        self.dir(d).join(format!("{id}.events.jsonl"))
    }

    /// Path of a job's final human-readable report in state `d`.
    pub fn report_path(&self, d: Dir, id: &str) -> PathBuf {
        self.dir(d).join(format!("{id}.report.txt"))
    }

    /// Path of a job's deployable `CCQPACK` artifact in state `d`.
    pub fn pack_path(&self, d: Dir, id: &str) -> PathBuf {
        self.dir(d).join(format!("{id}.ccqpack"))
    }

    /// The graceful-shutdown sentinel file.
    pub fn stop_path(&self) -> PathBuf {
        self.root.join("stop")
    }

    /// The metrics snapshot written when a daemon exits.
    pub fn metrics_path(&self) -> PathBuf {
        self.root.join("metrics.txt")
    }

    /// Finds which state holds job `id`, if any.
    ///
    /// # Errors
    ///
    /// Never fails today; `Result` reserves room for spool-corruption
    /// checks.
    pub fn find(&self, id: &str) -> Result<Option<Dir>> {
        for d in Dir::ALL {
            if self.job_path(d, id).exists() {
                return Ok(Some(d));
            }
        }
        Ok(None)
    }

    /// Sorted job ids in state `d`. A missing directory reads as empty,
    /// so `status` works on a partially-initialized root.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] if the directory exists but cannot be
    /// read.
    pub fn list(&self, d: Dir) -> Result<Vec<String>> {
        let dir = self.dir(d);
        let entries = match fs::read_dir(&dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(io_err("read dir", &dir, e)),
        };
        let mut ids = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| io_err("read dir entry in", &dir, e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(id) = name.strip_suffix(".job") {
                ids.push(id.to_string());
            }
        }
        ids.sort();
        Ok(ids)
    }

    /// Enqueues a spec as `pending/<name>.job`. The job id is the spec's
    /// `name`; ids are unique across **all** states so artifacts can
    /// never collide.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Queue`] on a duplicate id, or
    /// [`ServeError::Io`] on a write failure.
    pub fn enqueue(&self, spec: &JobSpec) -> Result<()> {
        if let Some(d) = self.find(&spec.name)? {
            return Err(ServeError::Queue(format!(
                "job {:?} already exists in {}/",
                spec.name,
                d.name()
            )));
        }
        atomic_write_text(&self.job_path(Dir::Pending, &spec.name), &spec.render())
    }

    /// Reads and parses a job's spec from state `d`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] if the file is unreadable or
    /// [`ServeError::Spec`] if it does not parse.
    pub fn read_spec(&self, d: Dir, id: &str) -> Result<JobSpec> {
        let path = self.job_path(d, id);
        let text = fs::read_to_string(&path).map_err(|e| io_err("read", &path, e))?;
        JobSpec::parse(&text)
    }

    /// Moves job `id` from state `from` to state `to`: sidecars first,
    /// the `.job` file last, then both directories fsynced. Existing
    /// files at the destination (stale leftovers from a crashed
    /// transition) are overwritten.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Queue`] if the job is not in `from`, or
    /// [`ServeError::Io`] on a rename failure.
    pub fn move_job(&self, id: &str, from: Dir, to: Dir) -> Result<()> {
        let job_src = self.job_path(from, id);
        if !job_src.exists() {
            return Err(ServeError::Queue(format!(
                "job {id:?} is not in {}/",
                from.name()
            )));
        }
        for suffix in SIDECARS {
            let src = self.dir(from).join(format!("{id}{suffix}"));
            if src.exists() {
                let dst = self.dir(to).join(format!("{id}{suffix}"));
                // ccq-lint: allow(durability) — sidecars were fsynced by their writers; the move is made durable by the sync_dir pair below
                fs::rename(&src, &dst).map_err(|e| io_err("move", &src, e))?;
            }
        }
        let job_dst = self.job_path(to, id);
        // ccq-lint: allow(durability) — the job file was written atomically on submit; the queue transition is made durable by the sync_dir pair below
        fs::rename(&job_src, &job_dst).map_err(|e| io_err("move", &job_src, e))?;
        sync_dir(&self.dir(to))?;
        sync_dir(&self.dir(from))?;
        Ok(())
    }

    /// Requests a graceful shutdown by creating the stop sentinel.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] on a write failure.
    pub fn request_stop(&self) -> Result<()> {
        atomic_write_text(&self.stop_path(), "stop\n")
    }

    /// Whether a graceful shutdown has been requested.
    pub fn stop_requested(&self) -> bool {
        self.stop_path().exists()
    }

    /// Clears a previous stop request (daemon startup).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] if the sentinel exists but cannot be
    /// removed.
    pub fn clear_stop(&self) -> Result<()> {
        let p = self.stop_path();
        match fs::remove_file(&p) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("remove", &p, e)),
        }
    }
}

/// Writes `text` to `path` through [`codec::write_atomic`]: temp file
/// in the same directory, data fsync, atomic rename over the target,
/// parent-directory fsync. No previous generation is kept.
///
/// # Errors
///
/// Returns [`ServeError::Io`] naming the failing step and path.
pub fn atomic_write_text(path: &Path, text: &str) -> Result<()> {
    codec::write_atomic(path, text.as_bytes(), false, false)
        .map_err(|e| ServeError::Io(e.to_string()))
}

/// Fsyncs a directory so a preceding rename survives power loss. A
/// directory that cannot be *opened* is skipped silently (some
/// filesystems refuse O_RDONLY on directories); a failed sync on an
/// opened directory is an error.
fn sync_dir(dir: &Path) -> Result<()> {
    if let Ok(d) = fs::File::open(dir) {
        d.sync_all().map_err(|e| io_err("fsync dir", dir, e))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!("ccq_spool_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn enqueue_list_and_duplicate_rejection() {
        let root = temp_root("enqueue");
        let spool = Spool::new(&root);
        spool.init().expect("init");
        spool.init().expect("init is idempotent");
        let a = JobSpec::demo("job-a", 0);
        let b = JobSpec::demo("job-b", 1);
        spool.enqueue(&b).expect("enqueue b");
        spool.enqueue(&a).expect("enqueue a");
        assert_eq!(
            spool.list(Dir::Pending).expect("list"),
            vec!["job-a", "job-b"]
        );
        let err = spool.enqueue(&a).expect_err("duplicate id");
        assert!(err.to_string().contains("already exists"));
        assert_eq!(spool.find("job-a").expect("find"), Some(Dir::Pending));
        assert_eq!(spool.find("ghost").expect("find"), None);
        let back = spool.read_spec(Dir::Pending, "job-a").expect("spec");
        assert_eq!(back, a);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn move_job_carries_sidecars_and_overwrites_stale_leftovers() {
        let root = temp_root("move");
        let spool = Spool::new(&root);
        spool.init().expect("init");
        spool.enqueue(&JobSpec::demo("j", 0)).expect("enqueue");
        spool
            .move_job("j", Dir::Pending, Dir::Running)
            .expect("claim");
        fs::write(spool.events_path(Dir::Running, "j"), "line\n").expect("events");
        fs::write(spool.state_path(Dir::Running, "j"), b"state").expect("state");
        // Stale leftover from a hypothetical crashed earlier transition.
        fs::write(spool.events_path(Dir::Done, "j"), "stale\n").expect("stale");
        spool
            .move_job("j", Dir::Running, Dir::Done)
            .expect("finish");
        assert_eq!(spool.find("j").expect("find"), Some(Dir::Done));
        assert!(spool.list(Dir::Running).expect("list").is_empty());
        let ev = fs::read_to_string(spool.events_path(Dir::Done, "j")).expect("read");
        assert_eq!(ev, "line\n", "fresh artifact replaced the stale one");
        let err = spool
            .move_job("j", Dir::Running, Dir::Done)
            .expect_err("not in running anymore");
        assert!(err.to_string().contains("not in"));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn stop_sentinel_round_trips() {
        let root = temp_root("stop");
        let spool = Spool::new(&root);
        spool.init().expect("init");
        assert!(!spool.stop_requested());
        spool.request_stop().expect("request");
        assert!(spool.stop_requested());
        spool.clear_stop().expect("clear");
        spool.clear_stop().expect("clear is idempotent");
        assert!(!spool.stop_requested());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn atomic_write_leaves_no_tmp_and_replaces_contents() {
        let root = temp_root("atomic");
        fs::create_dir_all(&root).expect("mkdir");
        let p = root.join("f.txt");
        atomic_write_text(&p, "one\n").expect("write");
        atomic_write_text(&p, "two\n").expect("overwrite");
        assert_eq!(fs::read_to_string(&p).expect("read"), "two\n");
        assert!(!root.join("f.txt.tmp").exists());
        fs::remove_dir_all(&root).ok();
    }
}
