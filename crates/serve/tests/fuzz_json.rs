//! Fuzz smoke over the daemon's JSON layer: deterministic mutations of a
//! committed request corpus (`fuzz/corpus/json/`) posted at a live daemon,
//! asserting every response is either `200` or a structured error object
//! (`error` + `code`) — and that no handler panicked along the way. The
//! budget is bounded (`MFCSL_FUZZ_ITERS` raises it for soak runs), and the
//! mutation stream is a fixed xorshift64 sequence, so the smoke's runtime
//! and coverage are reproducible.

use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use mfcsl_serve::http::roundtrip;
use mfcsl_serve::{client, Json, ModelRegistry, Server, ServerConfig};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../fuzz/corpus/json")
}

fn modelfile_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../modelfiles")
}

struct XorShift64(u64);

impl XorShift64 {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }
}

fn iterations() -> usize {
    std::env::var("MFCSL_FUZZ_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(128)
}

const INTERESTING: &[u8] = b"{}[]\",:0923ee+-.\\ntfu \xff\xc3\x00";

fn mutate(seed: &[u8], rng: &mut XorShift64) -> Vec<u8> {
    let mut bytes = seed.to_vec();
    // `below` may return 0: some mutants are the pristine seed, which keeps
    // the happy path (the valid seeds answer 200) inside the stream.
    for _ in 0..rng.below(6) {
        match rng.below(4) {
            0 if !bytes.is_empty() => {
                let at = rng.below(bytes.len());
                bytes[at] = INTERESTING[rng.below(INTERESTING.len())];
            }
            1 => {
                let at = rng.below(bytes.len() + 1);
                bytes.insert(at, INTERESTING[rng.below(INTERESTING.len())]);
            }
            2 if !bytes.is_empty() => {
                bytes.truncate(rng.below(bytes.len() + 1));
            }
            _ if bytes.len() >= 2 => {
                let from = rng.below(bytes.len());
                let len = rng.below(bytes.len() - from) + 1;
                let slice = bytes[from..from + len].to_vec();
                let at = rng.below(bytes.len());
                bytes.splice(at..at, slice);
            }
            _ => {}
        }
    }
    bytes
}

/// Soak-budget guard: a digit-spliced `replications` of 40 000 000 would
/// make the smoke's wall clock depend on the mutation stream. Mutants that
/// parse AND ask for outsized work are skipped — the validation layers they
/// would exercise are already covered by the in-budget mutants.
fn too_expensive(bytes: &[u8]) -> bool {
    let Ok(text) = std::str::from_utf8(bytes) else {
        return false;
    };
    let Ok(body) = Json::parse(text) else {
        return false;
    };
    ["population", "replications", "horizon"]
        .iter()
        .any(|name| {
            body.get(name)
                .and_then(Json::as_f64)
                .is_some_and(|v| v > 1e4)
        })
}

#[test]
fn daemon_json_layer_survives_mutated_corpus_with_structured_errors() {
    let mut seeds: Vec<(String, Vec<u8>)> = std::fs::read_dir(corpus_dir())
        .expect("fuzz/corpus/json must exist")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).expect("readable seed"))
        })
        .collect();
    seeds.sort_by(|a, b| a.0.cmp(&b.0));
    assert!(!seeds.is_empty(), "seed corpus must not be empty");

    let registry = ModelRegistry::load(&[modelfile_dir()]).unwrap();
    let server = Server::bind(registry, ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().unwrap());

    let mut rng = XorShift64(0xf022_55aa_0000_0001);
    let mut ok = 0usize;
    let mut rejected = 0usize;
    for i in 0..iterations() {
        let (name, seed) = &seeds[i % seeds.len()];
        let body = mutate(seed, &mut rng);
        if too_expensive(&body) {
            continue;
        }
        let path = if name.starts_with("prewarm") {
            "/v1/prewarm"
        } else {
            "/v1/check"
        };
        let mut stream = TcpStream::connect(&addr).unwrap();
        let _ = stream.set_read_timeout(Some(Duration::from_secs(120)));
        let response = roundtrip(&mut stream, "POST", path, &body).unwrap();
        if response.status == 200 {
            ok += 1;
            continue;
        }
        rejected += 1;
        let parsed = Json::parse(&response.text()).unwrap_or_else(|e| {
            panic!(
                "{name} mutant {i}: non-200 body must be JSON, got {e}: {}",
                response.text()
            )
        });
        assert!(
            parsed.get("error").and_then(Json::as_str).is_some()
                && parsed.get("code").and_then(Json::as_str).is_some(),
            "{name} mutant {i}: error responses must carry `error` and `code`: {}",
            response.text()
        );
    }
    // The stream must exercise both arms, or the smoke silently degraded
    // into testing only one path.
    assert!(rejected > 0, "no mutant was rejected");
    assert!(ok > 0, "no mutant survived validation");

    let metrics = client::get_text(&addr, "/metrics").unwrap();
    assert!(
        metrics.contains("mfcsld_worker_panics_total 0"),
        "a handler panicked during the fuzz smoke: {metrics}"
    );
    client::shutdown(&addr).unwrap();
    handle.join().unwrap();
}
