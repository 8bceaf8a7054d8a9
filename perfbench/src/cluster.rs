//! Starting and stopping `groupdet serve` / `groupdet route` processes.
//! Every child is registered, so the watchdog can stop them all even when
//! a run has to be abandoned, and is killed by the kernel if the benchmark
//! itself is killed first.

use gbd_serve::Json;
use std::io::{BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Mutex;

static CHILDREN: Mutex<Vec<u32>> = Mutex::new(Vec::new());

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// SIGKILLs and reaps every registered child (the watchdog path; normal
/// teardown goes through [`Proc`]'s `Drop`).
pub fn kill_registered() {
    let pids = CHILDREN.lock().map(|p| p.clone()).unwrap_or_default();
    for pid in pids {
        let Ok(pid) = i32::try_from(pid) else {
            continue;
        };
        let mut status = 0i32;
        // SAFETY: plain syscalls on a pid this process spawned and has not
        // reaped (it is unregistered before `Drop` reaps it); `status`
        // outlives the call.
        unsafe {
            kill(pid, SIGKILL as i32);
            waitpid(pid, &mut status, 0);
        }
    }
}

/// A running child that is killed and reaped when dropped.
pub struct Proc {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    /// The JSON `listening` line the child printed at start-up.
    pub info: Json,
}

impl Proc {
    /// Starts `bin args…` and waits for its first stdout line, which must
    /// be the JSON `listening` event. Children are only started from the
    /// main thread: the parent-death signal fires when the spawning thread
    /// exits, not only the process.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Proc, String> {
        let mut command = Command::new(bin);
        command
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        // SAFETY: `prctl` is async-signal-safe and touches no memory of
        // the parent; it runs in the child between fork and exec.
        unsafe {
            command.pre_exec(|| {
                if prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0) != 0 {
                    return Err(std::io::Error::last_os_error());
                }
                Ok(())
            });
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        if let Ok(mut pids) = CHILDREN.lock() {
            pids.push(child.id());
        }
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut proc = Proc {
            child,
            _stdout: BufReader::new(stdout),
            info: Json::Null,
        };
        let mut line = String::new();
        proc._stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading start-up line: {e}"))?;
        proc.info = Json::parse(line.trim())
            .map_err(|e| format!("{} {args:?} did not start ({e}): {line:?}", bin.display()))?;
        Ok(proc)
    }

    /// A `host:port` field of the start-up line.
    pub fn addr(&self, key: &str) -> Result<String, String> {
        self.info
            .get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("no `{key}` in {}", self.info.render()))
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let pid = self.child.id();
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Ok(mut pids) = CHILDREN.lock() {
            pids.retain(|&p| p != pid);
        }
    }
}

/// How to start one `groupdet serve` shard.
#[derive(Default)]
pub struct Shard<'a> {
    pub id: &'a str,
    pub store: Option<PathBuf>,
    pub replicate_to: Option<String>,
    pub replica_listen: bool,
}

impl Shard<'_> {
    pub fn start(&self, bin: &Path) -> Result<Proc, String> {
        let mut args: Vec<String> = [
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--metrics-addr",
            "127.0.0.1:0",
            "--shard-id",
            self.id,
            "--json",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        if let Some(store) = &self.store {
            args.push("--store".to_string());
            args.push(store.display().to_string());
        }
        if let Some(target) = &self.replicate_to {
            args.push("--replicate-to".to_string());
            args.push(target.clone());
        }
        if self.replica_listen {
            args.push("--replica-listen".to_string());
            args.push("127.0.0.1:0".to_string());
        }
        Proc::spawn(bin, &args)
    }
}

/// Starts `groupdet route` over `shards` (slot order).
pub fn start_router(bin: &Path, shards: &[String]) -> Result<Proc, String> {
    let mut args = vec![
        "route".to_string(),
        "--addr".to_string(),
        "127.0.0.1:0".to_string(),
        "--json".to_string(),
    ];
    for shard in shards {
        args.push("--shard".to_string());
        args.push(shard.clone());
    }
    Proc::spawn(bin, &args)
}

/// A scratch directory inside the checkout, removed when dropped.
pub struct RunDir(pub PathBuf);

impl RunDir {
    pub fn new(name: &str) -> Result<RunDir, String> {
        let dir = PathBuf::from(".bench_run").join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}
