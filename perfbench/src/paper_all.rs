//! `paper_all`: `drywells::run_all` on the full-scale study, every
//! table and figure on the render model. Most of the work is in
//! `delegation::base`, `delegation::extensions` and
//! `core::experiments`; the study build is setup.
//!
//! End-to-end mapping: `work_s` = one `run_all` with the study cache
//! warm (`paper_s`); `op_ms` = one Figure 6 regeneration, the paper's
//! headline inference artifact (three per repetition).

use crate::common::{digest_of, median, note, secs, timed, Bench, PathProfile};
use crate::mrt_pipeline::build_world;
use bgpsim::observe::render_days;
use delegation::base::infer_base_delegations;
use delegation::config::InferenceConfig;
use delegation::extensions::consistency_fill;
use delegation::pipeline::{run_pipeline, PipelineInput};
use drywells::experiments::{self as ex, build_bgp_study, build_bgp_study_cached};
use drywells::StudyConfig;
use std::sync::Arc;

/// The section headers `run_all` must emit, in order.
const HEADERS: [&str; 14] = [
    "Table 1: IPv4 exhaustion timeline",
    "S2: waiting lists",
    "Figure 1: price per IP",
    "Figure 2: market transfers",
    "Figure 3: inter-RIR transfers",
    "Figure 4: advertised leasing prices",
    "Figure 5: RPKI consistency rules",
    "Figure 6: BGP delegations",
    "S4: BGP vs RDAP coverage",
    "S5: related-work prediction models",
    "S6: amortization",
    "S6: market behaviour by business model",
    "S7: combined BGP+RPKI+RDAP estimator",
    "Sensitivity: thresholds and fill windows",
];

/// `fig6::run` calls after each `run_all`: its median then rests on
/// several samples spread over the whole timed phase.
const FIG6_PER_REPETITION: usize = 3;

type Runner = fn(&StudyConfig) -> String;

/// The fourteen runners `run_all` calls, each with its span name.
const RUNNERS: [(&str, Runner); 14] = [
    ("experiments.table1", |_| ex::table1::run().rendered),
    ("experiments.s2_waitlists", |c| {
        ex::s2_waitlists::run(c).rendered
    }),
    ("experiments.fig1", |c| ex::fig1::run(c).rendered),
    ("experiments.fig2", |c| ex::fig2::run(c).rendered),
    ("experiments.fig3", |c| ex::fig3::run(c).rendered),
    ("experiments.fig4", |_| ex::fig4::run().rendered),
    ("experiments.fig5", |c| ex::fig5::run(c).rendered),
    ("experiments.fig6", |c| ex::fig6::run(c).rendered),
    ("experiments.s4_coverage", |c| {
        ex::s4_coverage::run(c).rendered
    }),
    ("experiments.s5_prediction", |c| {
        ex::s5_prediction::run(c)
            .map(|r| r.rendered)
            .unwrap_or_default()
    }),
    ("experiments.s6_amortization", |_| {
        ex::s6_amortization::run().rendered
    }),
    ("experiments.s6_behavior", |c| {
        ex::s6_behavior::run(c).rendered
    }),
    ("experiments.s7_combined", |c| {
        ex::s7_combined::run(c).rendered
    }),
    ("experiments.sensitivity", |c| {
        ex::sensitivity::run(c).rendered
    }),
];

fn check_report(b: &mut Bench, report: &str) {
    let missing: Vec<&str> = HEADERS
        .iter()
        .filter(|h| !report.contains(&format!("=== {h} ===")))
        .copied()
        .collect();
    b.check(missing.is_empty(), || {
        format!("run_all report lacks sections {missing:?}")
    });
}

pub fn run(b: &mut Bench) -> Result<(), String> {
    let config = StudyConfig::full();
    // Time uncached builds, then fill the study cache `run_all` reads
    // with one more build of the same study.
    b.setup(|| Ok(build_bgp_study(&config)))?;
    build_bgp_study_cached(&config);
    b.start_timed();
    let (mut paper, mut fig6) = (Vec::new(), Vec::new());
    let (mut reports, mut figs) = (Vec::new(), Vec::new());
    while b.more(paper.len(), 2, 20) {
        let (report, t) = timed(|| drywells::run_all(&config));
        check_report(b, &report);
        paper.push(t);
        reports.push(digest_of(&report));
        for _ in 0..FIG6_PER_REPETITION {
            let (fig, t6) = timed(|| ex::fig6::run(&config));
            b.check(!fig.rendered.is_empty(), || "fig6 rendered nothing".into());
            fig6.push(t6 * 1e3);
            figs.push(digest_of(&fig.rendered));
        }
    }
    for digests in [&reports, &figs] {
        for d in digests.iter().skip(1) {
            b.check(*d == digests[0], || {
                "paper output changed between repetitions".into()
            });
        }
    }
    note(&format!(
        "repetitions {} (1 worker); report digest {:x}",
        paper.len(),
        reports[0]
    ));
    note(&format!("paper_s {} s (per run {paper:?})", median(&paper)));
    note(&format!("fig6_ms {} ms (per run {fig6:?})", median(&fig6)));
    b.metric("work_s", median(&paper));
    b.metric("op_ms", median(&fig6));
    Ok(())
}

/// The traced run's render-model layers: world, day rendering and
/// registry one by one, each `run_all` runner, base inference on
/// every rendered day, the `Days` pipeline and the consistency fill.
/// Tracing overhead: one untraced `fig6::run` against the traced one.
pub fn trace(b: &mut Bench, profile: &Arc<PathProfile>) -> Result<(), String> {
    let config = StudyConfig::full();
    let guard = obs::subscribe(profile.clone());
    // Setup layers, called one by one, then the cached study.
    let world = build_world(&config);
    {
        let _s = obs::span!("observe.render_days");
        render_days(&world, &config.visibility, world.span);
    }
    {
        let _s = obs::span!("registry.simulate");
        registry::simulate::simulate(&config.registry);
    }
    let study = build_bgp_study_cached(&config);
    drop(guard);

    let (_, untraced_fig6) = timed(|| ex::fig6::run(&config));

    let guard = obs::subscribe(profile.clone());
    for (name, runner) in RUNNERS {
        let _s = obs::span!(name);
        let rendered = runner(&config);
        b.check(!rendered.is_empty(), || format!("{name} rendered nothing"));
    }
    let baseline = InferenceConfig::baseline();
    let (mut routes, mut delegations) = (0usize, 0usize);
    for day in &study.days {
        let _s = obs::span!("base.infer");
        routes += day.routes.len();
        delegations += infer_base_delegations(day, &baseline).len();
    }
    let span = study.world.span;
    let days = {
        let _s = obs::span!("pipeline.days");
        let base = run_pipeline(PipelineInput::Days(&study.days), span, &baseline, None);
        run_pipeline(
            PipelineInput::Days(&study.days),
            span,
            &InferenceConfig::extended(),
            Some(&study.as2org),
        );
        base
    };
    let max_gap = InferenceConfig::extended()
        .consistency_fill_days
        .unwrap_or(10);
    {
        let _s = obs::span!("extensions.consistency_fill");
        consistency_fill(&days.days, max_gap);
    }
    drop(guard);

    let traced_fig6 = secs(profile.leaf("experiments.fig6").total);
    note(&format!(
        "fig6 untraced {untraced_fig6} s, traced {traced_fig6} s"
    ));
    b.metric(
        "obs.trace_overhead_pct",
        100.0 * (traced_fig6 - untraced_fig6) / untraced_fig6,
    );
    b.metric(
        "observe.render_days_ms",
        profile.leaf_ms("observe.render_days"),
    );
    b.metric("registry.simulate_ms", profile.leaf_ms("registry.simulate"));
    for (name, _) in RUNNERS {
        b.metric(&format!("{name}_ms"), profile.leaf_ms(name));
    }
    b.metric("base.infer_ms", profile.leaf_ms("base.infer"));
    b.metric("base.routes", routes as f64);
    b.metric("base.delegations", delegations as f64);
    b.metric(
        "extensions.consistency_fill_ms",
        profile.leaf_ms("extensions.consistency_fill"),
    );
    b.metric("pipeline.days_ms", profile.leaf_ms("pipeline.days"));
    Ok(())
}
