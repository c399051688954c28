//! The server side of a run: launching `slcs serve`, talking its line
//! protocol, and reading its counters and process accounting.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running server the load generator can reach.
pub trait Served {
    fn addr(&self) -> SocketAddr;
    /// Process whose CPU time and peak RSS are charged to the server.
    fn pid(&self) -> u32;
}

/// Starts a fresh server per set-up. Dropping what it returns stops it.
pub trait Launcher {
    fn launch(&self) -> std::io::Result<Box<dyn Served>>;
}

/// `slcs serve` as a child process, started in `cwd` with default
/// flags except `--addr 127.0.0.1:0`, so the kernel picks a free port
/// and the server reports it on its first line.
pub struct SlcsLauncher {
    pub binary: PathBuf,
    pub cwd: PathBuf,
}

struct SlcsProcess {
    child: Child,
    addr: SocketAddr,
}

impl Launcher for SlcsLauncher {
    fn launch(&self) -> std::io::Result<Box<dyn Served>> {
        let mut cmd = Command::new(&self.binary);
        cmd.args(["serve", "--addr", "127.0.0.1:0"])
            .current_dir(&self.cwd)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        // Tuning and tracing overrides would change what runs; the
        // benchmark measures the defaults users get.
        for var in ["SLCS_TUNING", "SLCS_PAR_GRAIN", "SLCS_TRACE_BUFFER"] {
            cmd.env_remove(var);
        }
        let mut child = cmd.spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut first = String::new();
        let read = BufReader::new(stdout).read_line(&mut first);
        // "slcs engine listening on 127.0.0.1:PORT (…)"
        let addr = read.ok().and_then(|_| first.split_whitespace().nth(4)?.parse().ok());
        match addr {
            Some(addr) => Ok(Box::new(SlcsProcess { child, addr })),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(std::io::Error::other(format!("unexpected serve banner {first:?}")))
            }
        }
    }
}

impl Served for SlcsProcess {
    fn addr(&self) -> SocketAddr {
        self.addr
    }
    fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for SlcsProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One protocol connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Conn { writer: stream.try_clone()?, reader: BufReader::new(stream) })
    }

    /// Sends `line` and returns the first reply line, without its newline.
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.send(line)?;
        self.read_line()
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf)
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server closed"));
        }
        if reply.ends_with('\n') {
            reply.pop();
        }
        Ok(reply)
    }

    /// A multi-line reply terminated by `# EOF` (METRICS).
    pub fn request_multi(&mut self, line: &str) -> std::io::Result<Vec<String>> {
        self.send(line)?;
        let mut lines = Vec::new();
        loop {
            let l = self.read_line()?;
            if l == "# EOF" {
                return Ok(lines);
            }
            lines.push(l);
        }
    }
}

/// Connects and waits for `PING` to answer, retrying until `limit`.
pub fn await_ping(addr: SocketAddr, limit: Duration) -> std::io::Result<()> {
    let start = Instant::now();
    loop {
        let attempt =
            Conn::connect(addr, Duration::from_secs(5)).and_then(|mut c| c.request("PING"));
        match attempt {
            Ok(reply) if reply == "OK pong" => return Ok(()),
            Ok(reply) => return Err(std::io::Error::other(format!("PING answered {reply:?}"))),
            Err(_) if start.elapsed() < limit => std::thread::sleep(Duration::from_millis(2)),
            Err(e) => return Err(e),
        }
    }
}

/// The `STATS` line as `key=value` fields. List-valued fields
/// (`dispatch=`, `errors=`) hold `name:count` items.
#[derive(Clone, Debug, Default)]
pub struct Stats(BTreeMap<String, String>);

impl Stats {
    pub fn parse(line: &str) -> Stats {
        let body = line.strip_prefix("OK ").unwrap_or(line);
        Stats(
            body.split_whitespace()
                .filter_map(|kv| kv.split_once('='))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        )
    }

    pub fn text(&self, key: &str) -> &str {
        self.0.get(key).map_or("", String::as_str)
    }

    /// A numeric field; 0 when absent.
    pub fn num(&self, key: &str) -> f64 {
        self.text(key).parse().unwrap_or(0.0)
    }

    /// One item of a list-valued field; 0 when absent.
    pub fn item(&self, key: &str, name: &str) -> f64 {
        self.items(key).into_iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| v)
    }

    pub fn items(&self, key: &str) -> Vec<(String, f64)> {
        self.text(key)
            .split(',')
            .filter_map(|item| item.split_once(':'))
            .map(|(n, v)| (n.to_string(), v.parse().unwrap_or(0.0)))
            .collect()
    }
}

/// `METRICS` samples keyed by series (`name{labels}`); comments skipped.
#[derive(Clone, Debug, Default)]
pub struct Exposition(BTreeMap<String, f64>);

impl Exposition {
    pub fn parse(lines: &[String]) -> Exposition {
        Exposition(
            lines
                .iter()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| l.rsplit_once(' '))
                .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
                .collect(),
        )
    }

    /// A series' value; 0 when absent.
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// `(label value, sample)` for every series of `name` carrying `label`.
    pub fn by_label(&self, name: &str, label: &str) -> Vec<(String, f64)> {
        let prefix = format!("{name}{{{label}=\"");
        self.0
            .iter()
            .filter_map(|(k, &v)| {
                let rest = k.strip_prefix(&prefix)?;
                Some((rest.split('"').next()?.to_string(), v))
            })
            .collect()
    }
}

/// User plus system CPU time of process `pid`, in milliseconds, from
/// `/proc/<pid>/stat` (clock ticks of 1/100 s, the fixed Linux USER_HZ).
pub fn cpu_ms(pid: u32) -> std::io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    Ok((tick(11) + tick(12)) * 10.0)
}

/// CPU time the hypervisor gave to others (`steal`, summed over this
/// machine's CPUs in `/proc/stat`), in milliseconds.
pub fn host_steal_ms() -> std::io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    let cpu = stat.lines().next().unwrap_or("");
    // cpu  user nice system idle iowait irq softirq steal …
    Ok(cpu.split_whitespace().nth(8).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0) * 10.0)
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> std::io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(0.0);
    Ok(kb / 1024.0)
}
