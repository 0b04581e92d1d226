//! Multi-site scaling study: the concurrent site runtime
//! ([`autotune::site`]) driven at production shape — many independent
//! tuning sites, many request threads — with per-site convergence and
//! aggregate throughput as the observables.
//!
//! Each synthetic site has three algorithms with a site-specific winner
//! (site `i`'s best algorithm is `i mod 3`) and a deterministic spin-work
//! cost model, so "did every site converge to *its own* winner?" is
//! directly checkable after the run. Threads sweep the whole site
//! population round-robin, which maximizes cross-site interleaving (the
//! worst case for a shared-state tuner, the intended case for the sharded
//! registry).

use autotune::site::{register, site, Site, SiteSpec};
use autotune::two_phase::{AlgorithmSpec, NominalKind};
use std::time::Instant;

/// Scale knobs. Defaults are the *quick* profile.
#[derive(Debug, Clone)]
pub struct SitesConfig {
    /// Number of independent tuning sites.
    pub num_sites: usize,
    /// Thread counts to sweep (aggregate throughput is measured per entry).
    pub threads: Vec<usize>,
    /// Calls per site per thread-count leg.
    pub calls_per_site: usize,
    /// Spin-work base cost per call, in microseconds.
    pub work_us: u64,
    pub seed: u64,
}

impl Default for SitesConfig {
    fn default() -> Self {
        SitesConfig {
            num_sites: 512,
            threads: vec![1, available_threads()],
            calls_per_site: 30,
            work_us: 2,
            seed: 20170608,
        }
    }
}

impl SitesConfig {
    /// The full-scale profile: 2048 sites, an explicit 1 → 8 thread sweep.
    pub fn paper() -> Self {
        SitesConfig {
            num_sites: 2048,
            threads: vec![1, 2, 4, 8],
            ..Default::default()
        }
    }
}

fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Per-site cost model: site `i`'s algorithm `a` costs
/// `work_us * (1 + |a - i mod 3|)` microseconds of spin work — a distinct
/// winner per site, with losers 2x-3x slower.
pub fn cost_us(cfg: &SitesConfig, site_index: usize, algorithm: usize) -> u64 {
    let best = site_index % 3;
    cfg.work_us * (1 + algorithm.abs_diff(best)) as u64
}

fn spin_for_us(us: u64) {
    let start = Instant::now();
    while start.elapsed().as_micros() < us as u128 {
        std::hint::spin_loop();
    }
}

/// One thread-count leg of the study.
#[derive(Debug, Clone)]
pub struct SitesLeg {
    /// Threads driving calls in this leg.
    pub threads: usize,
    /// Total completed calls across all sites.
    pub total_calls: u64,
    /// Calls that found the claim held and took the exploit fast path.
    pub contended_calls: u64,
    /// Wall-clock time of the leg, in milliseconds.
    pub wall_ms: f64,
    /// Aggregate throughput, in calls per second.
    pub calls_per_sec: f64,
}

/// Results of the full study.
#[derive(Debug, Clone)]
pub struct SitesStudy {
    pub config: SitesConfig,
    /// One entry per thread count, in sweep order.
    pub legs: Vec<SitesLeg>,
    /// Fraction of sites whose final exploit choice equals the cost
    /// model's per-site winner, measured after the whole sweep.
    pub converged_fraction: f64,
    /// Host core count (scaling legs are only meaningful up to this).
    pub host_cores: usize,
}

fn register_sites(cfg: &SitesConfig) -> Vec<Site> {
    (0..cfg.num_sites)
        .map(|i| {
            let specs = vec![
                AlgorithmSpec::untunable("a0"),
                AlgorithmSpec::untunable("a1"),
                AlgorithmSpec::untunable("a2"),
            ];
            let id = register(SiteSpec::algorithms(
                format!("synthetic-{i}"),
                specs,
                NominalKind::EpsilonGreedy(0.10),
                cfg.seed.wrapping_add(i as u64),
            ));
            site(id)
        })
        .collect()
}

fn drive_leg(cfg: &SitesConfig, sites: &[Site], threads: usize) -> SitesLeg {
    let calls_before: u64 = sites.iter().map(|s| s.calls()).sum();
    let contended_before: u64 = sites.iter().map(|s| s.contended()).sum();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let sites = &sites;
            scope.spawn(move || {
                // Each thread sweeps the whole population, phase-shifted so
                // threads collide on sites at staggered times.
                for round in 0..cfg.calls_per_site {
                    for k in 0..sites.len() {
                        let i = (k + t * sites.len() / threads.max(1)) % sites.len();
                        sites[i].tuned(|algorithm, _| {
                            spin_for_us(cost_us(cfg, i, algorithm));
                        });
                        std::hint::black_box(round);
                    }
                }
            });
        }
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let total_calls: u64 = sites.iter().map(|s| s.calls()).sum::<u64>() - calls_before;
    let contended_calls: u64 = sites.iter().map(|s| s.contended()).sum::<u64>() - contended_before;
    SitesLeg {
        threads,
        total_calls,
        contended_calls,
        wall_ms,
        calls_per_sec: total_calls as f64 / (wall_ms / 1e3),
    }
}

/// Run the full study: register the site population once, then sweep the
/// configured thread counts.
pub fn run_study(cfg: &SitesConfig) -> SitesStudy {
    let sites = register_sites(cfg);
    let legs: Vec<SitesLeg> = cfg
        .threads
        .iter()
        .map(|&threads| drive_leg(cfg, &sites, threads))
        .collect();
    let converged = sites
        .iter()
        .enumerate()
        .filter(|(i, s)| {
            s.with_tuner(|t| t.as_two_phase().unwrap().best_algorithm()) == Some(i % 3)
        })
        .count();
    SitesStudy {
        config: cfg.clone(),
        legs,
        converged_fraction: converged as f64 / sites.len() as f64,
        host_cores: available_threads(),
    }
}

/// Human-readable summary table.
pub fn summary(study: &SitesStudy) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "sites study: {} sites x {} calls/site, {} host cores\n",
        study.config.num_sites, study.config.calls_per_site, study.host_cores
    ));
    out.push_str("threads  calls      contended  wall[ms]   calls/s\n");
    let base = study.legs.first().map(|l| l.calls_per_sec);
    for l in &study.legs {
        let speedup = base.map_or(1.0, |b| l.calls_per_sec / b);
        out.push_str(&format!(
            "{:>7}  {:>9}  {:>9}  {:>9.1}  {:>9.0}  ({speedup:.2}x)\n",
            l.threads, l.total_calls, l.contended_calls, l.wall_ms, l.calls_per_sec
        ));
    }
    out.push_str(&format!(
        "converged to per-site winner: {:.1}%\n",
        study.converged_fraction * 100.0
    ));
    out
}

/// Write `sites.json` into `out`.
pub fn save_json(study: &SitesStudy, out: &std::path::Path) -> std::io::Result<()> {
    use autotune::json::Json;
    let legs: Vec<Json> = study
        .legs
        .iter()
        .map(|l| {
            Json::Obj(vec![
                ("threads".into(), Json::Num(l.threads as f64)),
                ("total_calls".into(), Json::Num(l.total_calls as f64)),
                (
                    "contended_calls".into(),
                    Json::Num(l.contended_calls as f64),
                ),
                ("wall_ms".into(), Json::Num(l.wall_ms)),
                ("calls_per_sec".into(), Json::Num(l.calls_per_sec)),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![
        ("num_sites".into(), Json::Num(study.config.num_sites as f64)),
        (
            "calls_per_site".into(),
            Json::Num(study.config.calls_per_site as f64),
        ),
        ("work_us".into(), Json::Num(study.config.work_us as f64)),
        ("host_cores".into(), Json::Num(study.host_cores as f64)),
        ("legs".into(), Json::Arr(legs)),
        (
            "converged_fraction".into(),
            Json::Num(study.converged_fraction),
        ),
    ]);
    std::fs::write(out.join("sites.json"), format!("{doc}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SitesConfig {
        SitesConfig {
            num_sites: 12,
            threads: vec![1, 2],
            calls_per_site: 40,
            work_us: 1,
            seed: 99,
        }
    }

    #[test]
    fn study_counts_every_call_exactly_once() {
        let cfg = tiny();
        let study = run_study(&cfg);
        assert_eq!(study.legs.len(), 2);
        for leg in &study.legs {
            assert_eq!(
                leg.total_calls,
                (cfg.num_sites * cfg.calls_per_site * leg.threads) as u64,
                "no lost or duplicated calls at {} threads",
                leg.threads
            );
            assert!(leg.calls_per_sec > 0.0);
        }
        // Single-threaded legs never contend.
        assert_eq!(study.legs[0].contended_calls, 0);
    }

    #[test]
    fn sites_converge_to_their_own_winners() {
        let study = run_study(&tiny());
        assert!(
            study.converged_fraction >= 0.75,
            "only {:.0}% of sites found their winner",
            study.converged_fraction * 100.0
        );
    }

    #[test]
    fn json_export_writes_the_file() {
        let dir = std::env::temp_dir().join("sites_study_test");
        std::fs::create_dir_all(&dir).unwrap();
        let study = run_study(&SitesConfig {
            threads: vec![1],
            num_sites: 4,
            calls_per_site: 5,
            ..tiny()
        });
        save_json(&study, &dir).unwrap();
        let text = std::fs::read_to_string(dir.join("sites.json")).unwrap();
        let doc = autotune::json::Json::parse(&text).unwrap();
        assert_eq!(doc.get("num_sites").unwrap().as_f64().unwrap(), 4.0);
        assert_eq!(doc.get("legs").unwrap().as_arr().unwrap().len(), 1);
    }
}
