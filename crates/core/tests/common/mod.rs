//! Helpers shared by the integration tests that drive real binaries.

use std::io::BufRead;
use std::process::{Child, Command, Stdio};

/// The real `edgetune shard-host` daemon as a child process, killed and
/// reaped on drop, so a failing test leaves no daemon behind.
pub struct ChildHost {
    child: Child,
    /// The address parsed from the daemon's one stdout line.
    pub addr: String,
}

impl Drop for ChildHost {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

pub fn child_host() -> ChildHost {
    let mut child = Command::new(env!("CARGO_BIN_EXE_edgetune"))
        .args(["shard-host", "--listen", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn shard-host daemon");
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("a listening banner")
        .expect("readable stdout");
    let addr = banner
        .strip_prefix("shard-host listening on ")
        .unwrap_or_else(|| panic!("unparseable banner: {banner}"))
        .to_string();
    ChildHost { child, addr }
}
