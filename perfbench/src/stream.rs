//! The `serve_mixed` job stream: deterministic in the run seed, with an
//! exact repeat share.
//!
//! Each of the [`CLIENTS`] closed-loop clients walks its own stream in
//! blocks of [`BLOCK`] jobs: `BLOCK - 1` specs never seen before, then
//! one repeat of a spec that same client submitted earlier. A client
//! waits for each job's result before submitting the next, so the spec a
//! repeat points at has always finished and sits in the result cache:
//! every repeat is a cache hit, never a coalesced attach, whatever the
//! timing. (Repeating a spec a *global* few positions back does not give
//! that guarantee: the other client may still be running it, and the
//! repeat then coalesces instead of hitting.) Design seeds are disjoint
//! between clients, so the two clients never share a spec.

/// Closed-loop clients driving the server.
pub const CLIENTS: usize = 2;
/// Jobs per block: `BLOCK - 1` new specs, then one repeat.
pub const BLOCK: usize = 4;
/// A repeat re-submits one of the client's last `REPEAT_WINDOW` new
/// specs, which bounds how much of the result cache the stream relies on.
pub const REPEAT_WINDOW: usize = 16;

/// SplitMix64: the benchmark's only source of derived seeds.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One job of a client's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamJob {
    /// `dpgen` seed of the job's design.
    pub design_seed: u64,
    /// Whether the spec was submitted before by the same client.
    pub repeat: bool,
}

/// The infinite, seed-determined job stream of one client.
#[derive(Debug, Clone)]
pub struct ClientStream {
    /// First design seed of the run; kept below 2^52 so seeds survive the
    /// job spec's JSON numbers exactly.
    base: u64,
    client: u64,
    rng: u64,
    news: Vec<u64>,
    position: usize,
}

impl ClientStream {
    /// Client `client`'s stream for run seed `seed`.
    pub fn new(seed: u64, client: usize) -> Self {
        ClientStream {
            base: mix(seed) >> 12,
            client: client as u64,
            rng: mix(seed ^ mix(client as u64 + 1)),
            news: Vec::new(),
            position: 0,
        }
    }
}

impl Iterator for ClientStream {
    type Item = StreamJob;

    fn next(&mut self) -> Option<StreamJob> {
        let repeat = self.position % BLOCK == BLOCK - 1;
        self.position += 1;
        if repeat {
            self.rng = mix(self.rng);
            let window = self.news.len().min(REPEAT_WINDOW);
            let back = (self.rng % window as u64) as usize;
            let design_seed = self.news[self.news.len() - 1 - back];
            return Some(StreamJob {
                design_seed,
                repeat: true,
            });
        }
        let n = self.news.len() as u64;
        let design_seed = self.base + n * CLIENTS as u64 + self.client;
        self.news.push(design_seed);
        Some(StreamJob {
            design_seed,
            repeat: false,
        })
    }
}

/// The `POST /jobs` body of a job: a `preset` design at `design_seed`,
/// fast flow, one kernel thread.
pub fn spec_json(preset: &str, design_seed: u64) -> String {
    format!(
        r#"{{"design":{{"preset":"{preset}","seed":{design_seed}}},"flow":{{"fast":true,"threads":1}}}}"#
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn take(seed: u64, client: usize, n: usize) -> Vec<StreamJob> {
        ClientStream::new(seed, client).take(n).collect()
    }

    #[test]
    fn stream_is_deterministic_in_the_seed() {
        assert_eq!(take(7, 0, 400), take(7, 0, 400));
        assert_eq!(take(7, 1, 400), take(7, 1, 400));
        assert_ne!(take(7, 0, 400), take(8, 0, 400));
    }

    #[test]
    fn repeat_share_is_exactly_one_in_block() {
        for blocks in [1, 13, 250] {
            let jobs = take(3, 1, blocks * BLOCK);
            let repeats = jobs.iter().filter(|j| j.repeat).count();
            assert_eq!(repeats, blocks);
            let distinct: BTreeSet<u64> = jobs.iter().map(|j| j.design_seed).collect();
            assert_eq!(distinct.len(), blocks * (BLOCK - 1));
        }
    }

    #[test]
    fn repeats_point_at_the_same_clients_recent_new_specs() {
        for client in 0..CLIENTS {
            let jobs = take(11, client, 2000);
            let mut news = Vec::new();
            for j in &jobs {
                if j.repeat {
                    let at = news.iter().rposition(|&s| s == j.design_seed);
                    let at = at.expect("a repeat points at an earlier new spec");
                    assert!(news.len() - at <= REPEAT_WINDOW);
                } else {
                    assert!(!news.contains(&j.design_seed), "new specs are new");
                    news.push(j.design_seed);
                }
            }
        }
    }

    #[test]
    fn clients_never_share_a_spec() {
        let a: BTreeSet<u64> = take(5, 0, 1000).iter().map(|j| j.design_seed).collect();
        let b: BTreeSet<u64> = take(5, 1, 1000).iter().map(|j| j.design_seed).collect();
        assert!(a.is_disjoint(&b));
        // Seeds stay exactly representable as JSON numbers.
        assert!(a.iter().chain(&b).all(|&s| s < 1 << 53));
    }

    #[test]
    fn spec_parses_with_one_kernel_thread() {
        let spec = sdp_serve::parse_spec(&spec_json("dp_tiny", 42)).expect("valid spec");
        assert_eq!(spec.flow.gp.threads, 1);
    }
}
