//! `lumped_exact`: the exact lumped CTMC of virus Setting 2 at N = 200
//! (20,301 states), built once; each op is one transient expected
//! occupancy by uniformization, its steps split into column blocks on a
//! pool of `nproc` threads (`SparseLumpedChain::expected_occupancy_on`).
//!
//! The traced run adds the plain single-thread baseline (`pool = None`)
//! on a subset of the same ops, the pool's task and busy counters, and the
//! uniformization work computed from the public `PoissonWindow`, the
//! propagator's uniformization rate and the chain's array sizes.

use std::time::Instant;

use mfcsl_ctmc::propagator::{Propagator, SparsePropagator};
use mfcsl_ctmc::transient::PoissonWindow;
use mfcsl_models::virus;
use mfcsl_pool::ThreadPool;
use mfcsl_sim::lumped::{self, SparseLumpedChain};

use crate::inputs::{virus_counts, Rng};
use crate::report::Outcome;
use crate::trace::{self, Tracer};
use crate::{alloc, stats, RunArgs, SETUPS_PER_PASS};

const POPULATION: usize = 200;
const EPS: f64 = 1e-10;
/// Op horizons: short enough that a run holds over 100 distinct ops at
/// PASSES passes; every op takes over 700 uniformization steps.
const T_RANGE: (f64, f64) = (0.5, 1.0);
/// Op executions per second of run time on the reference host, used to
/// size the fixed op count of a run.
const OPS_PER_S: f64 = 20.0;
/// Passes of an untraced run over its ops; an op's latency is its fastest
/// pass.
const PASSES: usize = 3;
const VERIFY_SHARE: f64 = 0.05;

struct Op {
    counts: [usize; 3],
    t: f64,
}

fn build() -> Result<SparseLumpedChain, String> {
    let model = virus::model(virus::setting_2(), virus::InfectionLaw::SmartVirus)
        .map_err(|e| e.to_string())?;
    lumped::build_sparse(&model, POPULATION, 1_000_000).map_err(|e| e.to_string())
}

fn run_op(
    chain: &SparseLumpedChain,
    pool: Option<&ThreadPool>,
    op: &Op,
) -> Result<Vec<f64>, String> {
    chain
        .expected_occupancy_on(pool, &op.counts, op.t, EPS)
        .map_err(|e| e.to_string())
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut rng = Rng::for_workload(args.seed, args.workload);
    // Distinct ops: an untraced run makes PASSES passes over them, a traced
    // run one untraced and one traced pass.
    let n = ((args.seconds * OPS_PER_S / PASSES as f64).ceil() as usize).max(12);
    // Time bounds stratified over T_RANGE: every run integrates the same
    // spread of horizons.
    let ts = rng.stratified(n, T_RANGE.0, T_RANGE.1);
    let ops: Vec<Op> = ts
        .into_iter()
        .map(|t| Op {
            counts: virus_counts(&mut rng, POPULATION),
            t,
        })
        .collect();
    // The same warm-up op at every seed.
    let warmup = Op {
        counts: [POPULATION * 4 / 5, POPULATION / 10, POPULATION / 10],
        t: T_RANGE.0,
    };
    let verify: Vec<bool> = (0..ops.len())
        .map(|i| i == 0 || rng.unit() < VERIFY_SHARE)
        .collect();

    let (passes, setups) = if args.trace {
        (1, 1)
    } else {
        (PASSES, SETUPS_PER_PASS)
    };
    let mut out = Outcome::new();
    let mut setup_s = Vec::with_capacity(passes * setups);
    let mut build_ms = Vec::with_capacity(passes * setups);
    let mut times = vec![Vec::with_capacity(ops.len()); passes];
    let mut pass_rates = Vec::with_capacity(passes);
    let mut first: Vec<Option<Vec<u64>>> = vec![None; ops.len()];
    let mut last = None;
    let (mut peak, mut allocs, mut tasks, mut busy, mut wall) = (0, 0, 0, 0.0, 0.0);
    for (pass, pass_times) in times.iter_mut().enumerate() {
        // Set-up: build the chain and the pool. The warm-up op runs outside
        // it: an op's speed depends on how the pool's threads land on the
        // cores, which made a set-up that ran one read 54 or 79 ms from run
        // to run.
        for _ in 0..setups {
            drop(last.take());
            let t = Instant::now();
            let chain = build()?;
            build_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let pool = ThreadPool::new(args.nproc);
            setup_s.push(t.elapsed().as_secs_f64());
            last = Some((chain, pool));
        }
        let (chain, pool) = last.take().ok_or("no setup ran")?;
        run_op(&chain, Some(&pool), &warmup)?;
        let before = pool.stats();
        let allocs0 = alloc::allocations();
        let baseline = alloc::reset_peak();
        let started = Instant::now();
        for (i, op) in ops.iter().enumerate() {
            let t = Instant::now();
            let result = run_op(&chain, Some(&pool), op);
            pass_times.push(t.elapsed().as_secs_f64() * 1e6);
            out.attempted += 1;
            match result {
                Ok(occ) => {
                    let total: f64 = occ.iter().sum();
                    if (total - 1.0).abs() > 1e-9 {
                        out.mismatch(format!("op {i}: occupancies sum to {total}"));
                    }
                    // Every pass must give the first pass's bits.
                    match &first[i] {
                        Some(b) if *b != bits(&occ) => {
                            out.mismatch(format!("op {i}: pass {pass} differs from pass 0"))
                        }
                        Some(_) => {}
                        None => first[i] = Some(bits(&occ)),
                    }
                }
                Err(e) => {
                    out.failed += 1;
                    out.note(format!("op {i} failed: {e}"));
                }
            }
        }
        let seconds = started.elapsed().as_secs_f64();
        wall += seconds;
        pass_rates.push(ops.len() as f64 / seconds);
        peak = peak.max(alloc::peak_above(baseline));
        allocs += alloc::allocations() - allocs0;
        let after = pool.stats();
        tasks += after.total_tasks - before.total_tasks;
        busy += (after.busy - before.busy).as_secs_f64();
        last = Some((chain, pool));
    }
    let (chain, pool) = last.ok_or("no pass ran")?;
    out.note(format!(
        "lumped_exact: {} states, {} transitions, {} ops x {passes} passes closed loop, pool {} threads",
        chain.n_states(),
        chain.chain().n_transitions(),
        ops.len(),
        pool.threads()
    ));
    let latencies = stats::fastest_over_passes(&times);
    out.note(format!(
        "pass rates {:?} ops/s; set-ups {:?} ms",
        pass_rates
            .iter()
            .map(|r| (r * 100.0).round() / 100.0)
            .collect::<Vec<_>>(),
        setup_s
            .iter()
            .map(|s| (s * 1e4).round() / 10.0)
            .collect::<Vec<_>>()
    ));

    for (i, op) in ops.iter().enumerate().filter(|(i, _)| verify[*i]) {
        let Some(got) = &first[i] else { continue };
        let mut expected = run_op(&chain, None, op)?;
        if args.corrupt_reference {
            expected[0] = f64::from_bits(expected[0].to_bits() ^ 1);
        }
        if *got != bits(&expected) {
            out.mismatch(format!(
                "op {i}: pooled occupancy differs from the serial one"
            ));
        }
    }

    if !args.trace {
        out.set("setup_s", stats::median(&setup_s));
        out.set("p50_us", stats::quantile(&latencies, 0.5));
        out.set("p90_us", stats::quantile(&latencies, 0.9));
        out.set(
            "ops_per_s",
            ops.len() as f64 / (latencies.iter().sum::<f64>() / 1e6),
        );
        out.set("peak_mem_mb", peak as f64 / (1024.0 * 1024.0));
        return Ok(out);
    }

    // Traced pass: one span per op around the pooled call.
    let mut tr = Tracer::with_capacity(ops.len());
    let mut traced = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let t = Instant::now();
        let r = tr.span("sim.expected_occupancy", i as u32, None, || {
            run_op(&chain, Some(&pool), op)
        });
        traced.push(t.elapsed().as_secs_f64() * 1e6);
        out.attempted += 1;
        if r.is_err() {
            out.failed += 1;
        }
    }
    // The plain single-thread baseline on every third op.
    let mut serial = Vec::new();
    let mut pooled = Vec::new();
    for (i, op) in ops.iter().enumerate().step_by(3) {
        let t = Instant::now();
        run_op(&chain, None, op)?;
        serial.push(t.elapsed().as_secs_f64() * 1e6);
        pooled.push(latencies[i]);
    }

    // The uniformization rate of the propagator each op builds.
    let unif = SparsePropagator::new(chain.chain()).unif_rate();
    let n_states = chain.n_states() as f64;
    let nnz = chain.chain().n_transitions() as f64;
    // One step gathers every stored rate plus its source entry and row
    // index, and reads/writes the dense vectors; each Poisson term also
    // accumulates into the result.
    let step_bytes = 8.0 * (n_states + 1.0) + 24.0 * nnz + 16.0 * n_states;
    let mut steps = Vec::with_capacity(ops.len());
    let mut bytes = Vec::with_capacity(ops.len());
    for op in &ops {
        let w = PoissonWindow::new(unif * op.t, EPS).map_err(|e| e.to_string())?;
        let s = (w.left + w.weights.len() - 1) as f64;
        steps.push(s);
        bytes.push(s * step_bytes + w.weights.len() as f64 * 24.0 * n_states);
    }
    let ops_n = ops.len() as f64;
    out.set("sim.build_ms", stats::median(&build_ms));
    out.set("pool.tasks_per_op", tasks as f64 / ops_n);
    out.set("pool.busy_frac", busy / (pool.threads() as f64 * wall));
    out.set(
        "pool.speedup_vs_serial",
        stats::median(&serial) / stats::median(&pooled),
    );
    out.set("ctmc.serial_p50_us", stats::median(&serial));
    out.set("sim.pooled_p50_us", stats::median(&latencies));
    out.set(
        "ctmc.uniformization_steps",
        steps.iter().sum::<f64>() / ops_n,
    );
    out.set(
        "ctmc.bytes_per_op_computed",
        bytes.iter().sum::<f64>() / ops_n,
    );
    let seconds: f64 = latencies.iter().sum::<f64>() / 1e6;
    out.set(
        "ctmc.gbps_computed",
        bytes.iter().sum::<f64>() / seconds / 1e9,
    );
    out.set("math.allocs_per_op", allocs as f64 / ops_n);
    out.set("math.peak_heap_kb", peak as f64 / 1024.0);
    out.set("loadgen.p99_us", stats::quantile(&latencies, 0.99));
    let by_op = trace::self_us_by_op(tr.spans(), ops.len());
    let self_p50 = trace::p50_self_us(&by_op, ops.len(), &["sim.expected_occupancy"]);
    let base = stats::median(&latencies);
    out.set("trace.self_sum_frac", self_p50 / base);
    out.set("trace.overhead_frac", stats::median(&traced) / base - 1.0);
    if let Some(path) = &args.trace_out {
        tr.write_json(path, args.workload, args.seed)
            .map_err(|e| format!("write trace: {e}"))?;
    }
    Ok(out)
}
