#include "ledger.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/pattern_table.h"
#include "decode/dem_builder.h"
#include "decode/union_find.h"
#include "sim/batch_driver.h"
#include "telemetry/telemetry.h"
#include "util/thread_pool.h"

namespace paperbench {

namespace {

using gld::LrcSchedule;
using gld::RoundResult;

constexpr int kPartReps = 5;        ///< repetitions of each setup part
constexpr int kCaptureBatches = 4;  ///< captured batches (64*K shots each)

/** Seconds spent in fn(), repeated until `budget_s` passed and at least
 *  `min_reps` ran. */
template <class Fn>
std::vector<double>
repeat_timed(double budget_s, int min_reps, Fn&& fn)
{
    std::vector<double> times;
    const double end = now_s() + budget_s;
    while (static_cast<int>(times.size()) < min_reps || now_s() < end) {
        const double t0 = now_s();
        fn();
        times.push_back(now_s() - t0);
    }
    return times;
}

/** Observe-time totals of every TimedPolicy one factory built. */
struct ObserveTally {
    std::atomic<uint64_t> ns{0};
    std::atomic<uint64_t> calls{0};
};

/**
 * Policy decorator: times each observe() with steady_clock and adds its
 * totals to the shared tally when the runner destroys it at the end of a
 * run, so worker threads never contend on the tally per call.
 */
class TimedPolicy final : public gld::Policy {
  public:
    TimedPolicy(std::unique_ptr<gld::Policy> inner, ObserveTally* tally)
        : inner_(std::move(inner)), tally_(tally)
    {
    }
    ~TimedPolicy() override
    {
        tally_->ns.fetch_add(ns_, std::memory_order_relaxed);
        tally_->calls.fetch_add(calls_, std::memory_order_relaxed);
    }
    TimedPolicy(const TimedPolicy&) = delete;
    TimedPolicy& operator=(const TimedPolicy&) = delete;

    std::string name() const override { return inner_->name(); }
    void begin_shot() override { inner_->begin_shot(); }
    void observe(int round, const RoundResult& rr, LrcSchedule* out) override
    {
        const auto t0 = std::chrono::steady_clock::now();
        inner_->observe(round, rr, out);
        ns_ += static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        ++calls_;
    }
    void set_leak_oracle(const gld::LeakageOracle* oracle) override
    {
        inner_->set_leak_oracle(oracle);
    }

  private:
    std::unique_ptr<gld::Policy> inner_;
    ObserveTally* tally_;
    uint64_t ns_ = 0;
    uint64_t calls_ = 0;
};

gld::PolicyFactory
timed_factory(const gld::PolicyFactory& inner, ObserveTally* tally)
{
    return [inner, tally](const gld::CodeContext& ctx,
                          uint64_t seed) -> std::unique_ptr<gld::Policy> {
        return std::make_unique<TimedPolicy>(inner(ctx, seed), tally);
    };
}

/** Last work-unit completion per executing thread (Collector on_block). */
class Timeline {
  public:
    void mark()
    {
        const double t = now_s();
        std::lock_guard<std::mutex> lock(mu_);
        last_[std::this_thread::get_id()] = t;
    }

    /** Share of [t0, t1] after the first executor ran out of work. */
    double tail_frac(double t0, double t1) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (last_.empty() || t1 <= t0)
            return 0.0;
        double first_dry = t1;
        for (const auto& kv : last_)
            first_dry = std::min(first_dry, kv.second);
        return (t1 - first_dry) / (t1 - t0);
    }

  private:
    mutable std::mutex mu_;
    std::unordered_map<std::thread::id, double> last_;
};

std::unique_ptr<gld::BatchSimulator>
make_batch_sim(const CodeBundle& b, const gld::ExperimentConfig& cfg,
               const gld::NoiseParams& np)
{
    std::unique_ptr<gld::Simulator> sim =
        gld::make_simulator(cfg.backend, b.code, b.rc, np, cfg.seed,
                            cfg.batch_words, cfg.noise_sampling);
    if (dynamic_cast<gld::BatchSimulator*>(sim.get()) == nullptr)
        throw std::runtime_error("replays need a batch-capable backend");
    return std::unique_ptr<gld::BatchSimulator>(
        static_cast<gld::BatchSimulator*>(sim.release()));
}

/**
 * Closed-loop capture at the workload's config: the batch simulator and
 * one policy per lane, driven the way the runner drives them, recording
 * every lane's RoundResult, the schedule its policy produced, and (with
 * LER on) the syndrome the runner would decode.
 */
struct Capture {
    int lanes = 0;
    int batches = 0;
    int rounds = 0;
    std::vector<uint64_t> seeds;   ///< per batch
    std::vector<int> leak_q;       ///< [b*lanes + l]: injected qubit or -1
    std::vector<RoundResult> rr;   ///< [(b*rounds + r)*lanes + l]
    std::vector<LrcSchedule> sched;  ///< same index: observe's output
    std::vector<std::vector<uint8_t>> syndromes;  ///< per shot, LER only

    size_t at(int b, int r, int l) const
    {
        return (static_cast<size_t>(b) * static_cast<size_t>(rounds) +
                static_cast<size_t>(r)) *
                   static_cast<size_t>(lanes) +
               static_cast<size_t>(l);
    }
};

Capture
capture(const gld::ExperimentConfig& cfg, const CodeBundle& b,
        const gld::PolicyFactory& factory)
{
    const std::unique_ptr<gld::BatchSimulator> sim =
        make_batch_sim(b, cfg, cfg.np);
    Capture cap;
    cap.lanes = sim->batch_width();
    cap.batches = kCaptureBatches;
    cap.rounds = cfg.rounds;
    std::vector<std::unique_ptr<gld::Policy>> policies;
    for (int l = 0; l < cap.lanes; ++l) {
        policies.push_back(factory(b.ctx, 0));
        policies.back()->set_leak_oracle(&sim->lane_oracle(l));
    }
    const std::vector<int> z_checks = b.code.checks_of_type(gld::CheckType::kZ);
    const size_t nz = z_checks.size();
    const gld::Rng master(cfg.seed);
    gld::Rng pick = master.split(1000);
    std::vector<LrcSchedule> scheds(static_cast<size_t>(cap.lanes));
    std::vector<RoundResult> rr;
    std::vector<std::vector<uint8_t>> flips;
    for (int bt = 0; bt < cap.batches; ++bt) {
        cap.seeds.push_back(master.split(static_cast<uint64_t>(bt)).next_u64());
        sim->reset_for_block(cap.seeds.back());
        sim->reset_shot_batch(cap.lanes);
        for (int l = 0; l < cap.lanes; ++l) {
            policies[static_cast<size_t>(l)]->begin_shot();
            scheds[static_cast<size_t>(l)].clear();
            int q = -1;
            if (cfg.leakage_sampling) {
                q = static_cast<int>(pick.uniform_int(
                    static_cast<uint32_t>(b.code.n_data())));
                sim->inject_data_leak_lane(l, q);
            }
            cap.leak_q.push_back(q);
        }
        for (int r = 0; r < cap.rounds; ++r) {
            sim->run_round_batch(scheds, &rr);
            for (int l = 0; l < cap.lanes; ++l) {
                const size_t li = static_cast<size_t>(l);
                policies[li]->observe(r, rr[li], &scheds[li]);
                cap.rr.push_back(rr[li]);
                cap.sched.push_back(scheds[li]);
            }
        }
        if (!cfg.compute_ler)
            continue;
        // The runner's syndrome: Z-detector rows per round, then the
        // final-readout row (last meas flips XOR the data readout).
        sim->final_data_measure_batch(&flips);
        for (int l = 0; l < cap.lanes; ++l) {
            std::vector<uint8_t> s((static_cast<size_t>(cap.rounds) + 1) * nz);
            for (int r = 0; r < cap.rounds; ++r) {
                const RoundResult& x = cap.rr[cap.at(bt, r, l)];
                for (size_t zi = 0; zi < nz; ++zi)
                    s[static_cast<size_t>(r) * nz + zi] =
                        x.detector[static_cast<size_t>(z_checks[zi])];
            }
            const RoundResult& last = cap.rr[cap.at(bt, cap.rounds - 1, l)];
            for (size_t zi = 0; zi < nz; ++zi) {
                const int zc = z_checks[zi];
                uint8_t det = last.meas_flip[static_cast<size_t>(zc)];
                for (int q : b.code.check(zc).support)
                    det ^= flips[static_cast<size_t>(l)][static_cast<size_t>(q)];
                s[static_cast<size_t>(cap.rounds) * nz + zi] = det;
            }
            cap.syndromes.push_back(std::move(s));
        }
    }
    return cap;
}

/**
 * One pass of the captured batches through a batch simulator.  `sched`
 * holds one lane-schedule vector per (batch, round), or a single one used
 * for every round; `inject` replays the captured leak injections.
 */
void
sim_pass(gld::BatchSimulator& sim, const Capture& cap,
         const std::vector<std::vector<LrcSchedule>>& sched, bool inject,
         std::vector<RoundResult>* rr)
{
    const bool per_round = sched.size() > 1;
    for (int bt = 0; bt < cap.batches; ++bt) {
        sim.reset_for_block(cap.seeds[static_cast<size_t>(bt)]);
        sim.reset_shot_batch(cap.lanes);
        for (int l = 0; inject && l < cap.lanes; ++l) {
            const int q = cap.leak_q[static_cast<size_t>(bt * cap.lanes + l)];
            if (q >= 0)
                sim.inject_data_leak_lane(l, q);
        }
        for (int r = 0; r < cap.rounds; ++r) {
            const size_t i =
                per_round ? static_cast<size_t>(bt * cap.rounds + r) : 0;
            sim.run_round_batch(sched[i], rr);
        }
    }
}

}  // namespace

LedgerResult
run_ledger(const Workload& w, const gld::ExperimentConfig& cfg,
           double seconds)
{
    LedgerResult out;
    auto add = [&out](const char* name, double value, const char* unit) {
        out.metrics.push_back({name, value, unit});
    };
    const double t_begin = now_s();

    // --- Setup layers, each timed alone (median of kPartReps). ---
    std::vector<double> code_ms, table_ms, dem_ms;
    std::unique_ptr<gld::DecodingGraph> graph;
    for (int i = 0; i < kPartReps; ++i) {
        double t0 = now_s();
        const auto b =
            std::make_unique<CodeBundle>(gld::SurfaceCode::make(w.distance));
        code_ms.push_back((now_s() - t0) * 1e3);
        if (!w.eraser) {
            t0 = now_s();
            gld::PatternTableSet::build(b->ctx, cfg.np, {}, false);
            table_ms.push_back((now_s() - t0) * 1e3);
        }
        if (cfg.compute_ler) {
            t0 = now_s();
            gld::DemBuilder dem(b->code, b->rc, cfg.np, cfg.rounds);
            graph = std::make_unique<gld::DecodingGraph>(dem.build());
            dem_ms.push_back((now_s() - t0) * 1e3);
        }
    }

    // --- The runner: warm-up, then untraced and traced runs alternated. ---
    Prepared p = prepare(w, cfg);
    gld::ExperimentRunner& runner = *p.runner;
    double t0 = now_s();
    out.reps.push_back(runner.run(p.factory));
    const double warm_s = now_s() - t0;

    gld::ThreadPool& pool = gld::ThreadPool::instance();
    std::vector<double> plain_s, traced_s;
    gld::telemetry::Record rec;
    uint64_t observe_ns = 0, observe_calls = 0;
    double tail = 0.0;
    int peak_active = 0;
    const double reps_end = t_begin + 0.5 * seconds;
    while (plain_s.size() < 2 || now_s() < reps_end) {
        runner.set_telemetry(nullptr);
        t0 = now_s();
        out.reps.push_back(runner.run(p.factory));
        plain_s.push_back(now_s() - t0);

        ObserveTally tally;
        Timeline timeline;
        gld::telemetry::Collector::Options opt;
        opt.on_block = [&timeline](uint64_t) { timeline.mark(); };
        gld::telemetry::Collector collector(opt);
        runner.set_telemetry(&collector);
        const gld::PolicyFactory timed = timed_factory(p.factory, &tally);
        pool.reset_peak();
        t0 = now_s();
        out.reps.push_back(runner.run(timed));
        const double t1 = now_s();
        runner.set_telemetry(nullptr);
        traced_s.push_back(t1 - t0);
        rec = collector.merged();
        observe_ns = tally.ns.load();
        observe_calls = tally.calls.load();
        tail = timeline.tail_frac(t0, t1);
        peak_active = std::max(peak_active, pool.peak_active());
    }

    const double total_ns = static_cast<double>(rec.total_stage_ns());
    const double shot_rounds = static_cast<double>(rec.rounds);
    const double shots = static_cast<double>(rec.shots);
    add("runtime.sim_frac", rec.stage_ns[gld::telemetry::kSim] / total_ns,
        "frac");
    add("runtime.policy_frac",
        rec.stage_ns[gld::telemetry::kPolicy] / total_ns, "frac");
    add("runtime.decode_frac",
        rec.stage_ns[gld::telemetry::kDecode] / total_ns, "frac");
    add("runtime.accounting_frac",
        rec.stage_ns[gld::telemetry::kAccounting] / total_ns, "frac");
    add("runtime.sim_ns_per_shot_round",
        rec.stage_ns[gld::telemetry::kSim] / shot_rounds, "ns");
    add("runtime.policy_ns_per_shot_round",
        rec.stage_ns[gld::telemetry::kPolicy] / shot_rounds, "ns");
    add("runtime.accounting_ns_per_shot_round",
        rec.stage_ns[gld::telemetry::kAccounting] / shot_rounds, "ns");
    add("runtime.decode_us_per_shot",
        rec.stage_ns[gld::telemetry::kDecode] / shots / 1e3, "us");
    add("runtime.work_units", static_cast<double>(rec.blocks), "count");
    add("runtime.warmup_extra_ms", (warm_s - median(plain_s)) * 1e3, "ms");
    add("runtime.trace_overhead_frac",
        median(traced_s) / median(plain_s) - 1.0, "frac");
    add("runtime.tail_frac", tail, "frac");

    const gld::Metrics& m = out.reps.back();
    const double m_shots = static_cast<double>(m.shots);
    add("core.observe_ns",
        observe_calls > 0 ? static_cast<double>(observe_ns) /
                                static_cast<double>(observe_calls)
                          : 0.0,
        "ns");
    add("core.observe_calls", static_cast<double>(observe_calls), "count");
    add("core.table_build_ms", table_ms.empty() ? 0.0 : median(table_ms),
        "ms");
    add("core.lrc_data_per_shot", m.lrc_data_total / m_shots, "1/shot");
    add("core.lrc_check_per_shot", m.lrc_check_total / m_shots, "1/shot");
    add("core.fn_per_shot", m.fn_per_shot(), "1/shot");
    add("core.lrc_precision",
        m.tp_total + m.fp_total > 0 ? m.tp_total / (m.tp_total + m.fp_total)
                                    : 0.0,
        "frac");

    // --- Thread scaling: the same runner config at 1 thread. ---
    double speedup = 1.0;
    if (cfg.threads > 1) {
        gld::ExperimentConfig wide = cfg;
        wide.shots = std::max(cfg.shots / 4, 64);
        gld::ExperimentConfig one = wide;
        one.threads = 1;
        const gld::ExperimentRunner r_wide(p.bundle->ctx, wide);
        const gld::ExperimentRunner r_one(p.bundle->ctx, one);
        std::vector<double> tw, t1;
        for (int i = 0; i < 2; ++i) {
            t0 = now_s();
            r_wide.run(p.factory);
            tw.push_back(now_s() - t0);
            t0 = now_s();
            r_one.run(p.factory);
            t1.push_back(now_s() - t0);
        }
        speedup = median(t1) / median(tw);
    }
    add("util.speedup_vs_t1", speedup, "x");
    add("util.pool_workers_created",
        static_cast<double>(pool.workers_created()), "count");
    add("util.pool_peak_active", static_cast<double>(peak_active), "count");
    add("codes.build_ms", median(code_ms), "ms");

    // --- Replays of captured rounds, schedules and syndromes. ---
    const double slice = 0.08 * seconds;
    const Capture cap = capture(cfg, *p.bundle, p.factory);
    const double lane_rounds = static_cast<double>(cap.batches) *
                               static_cast<double>(cap.rounds) *
                               static_cast<double>(cap.lanes);

    std::vector<std::unique_ptr<gld::Policy>> policies;
    for (int l = 0; l < cap.lanes; ++l)
        policies.push_back(p.factory(p.bundle->ctx, 0));
    std::vector<LrcSchedule> outs(static_cast<size_t>(cap.lanes));
    auto policy_pass = [&](bool verify) {
        size_t diffs = 0;
        for (int bt = 0; bt < cap.batches; ++bt) {
            for (auto& pol : policies)
                pol->begin_shot();
            for (int r = 0; r < cap.rounds; ++r) {
                for (int l = 0; l < cap.lanes; ++l) {
                    const size_t i = cap.at(bt, r, l);
                    LrcSchedule& o = outs[static_cast<size_t>(l)];
                    policies[static_cast<size_t>(l)]->observe(r, cap.rr[i], &o);
                    if (verify &&
                        (o.data_qubits != cap.sched[i].data_qubits ||
                         o.checks != cap.sched[i].checks))
                        ++diffs;
                }
            }
        }
        return diffs;
    };
    if (const size_t diffs = policy_pass(true); diffs != 0)
        out.replay_mismatch = std::to_string(diffs) +
                              " replayed policy decisions differ from the "
                              "captured schedules";
    const std::vector<double> pol_s =
        repeat_timed(slice, 3, [&] { policy_pass(false); });
    add("core.observe_ns_replay", median(pol_s) * 1e9 / lane_rounds, "ns");

    // Schedules as applied: round r gets what observe produced after r-1.
    std::vector<std::vector<LrcSchedule>> applied(
        static_cast<size_t>(cap.batches * cap.rounds),
        std::vector<LrcSchedule>(static_cast<size_t>(cap.lanes)));
    for (int bt = 0; bt < cap.batches; ++bt) {
        for (int r = 1; r < cap.rounds; ++r) {
            for (int l = 0; l < cap.lanes; ++l)
                applied[static_cast<size_t>(bt * cap.rounds + r)]
                       [static_cast<size_t>(l)] = cap.sched[cap.at(bt, r - 1, l)];
        }
    }
    const std::vector<std::vector<LrcSchedule>> none(
        1, std::vector<LrcSchedule>(static_cast<size_t>(cap.lanes)));
    gld::NoiseParams quiet = cfg.np;
    quiet.p = 0.0;
    quiet.lrc_leak_prob = 0.0;
    const std::unique_ptr<gld::BatchSimulator> sim =
        make_batch_sim(*p.bundle, cfg, cfg.np);
    const std::unique_ptr<gld::BatchSimulator> sim0 =
        make_batch_sim(*p.bundle, cfg, quiet);
    std::vector<RoundResult> rr;
    // The noisy passes replay the captured leak injections; the noiseless
    // ones inject nothing, so no leakage exists there at all.
    auto sim_ns = [&](gld::BatchSimulator& s, bool captured) {
        const bool noisy = &s == sim.get();
        return median(repeat_timed(slice, 3, [&] {
                   sim_pass(s, cap, captured ? applied : none, noisy, &rr);
               })) *
               1e9 / lane_rounds;
    };
    add("sim.ns_per_shot_round", sim_ns(*sim, true), "ns");
    add("sim.ns_per_shot_round_nolrc", sim_ns(*sim, false), "ns");
    const double p0 = sim_ns(*sim0, false);
    add("sim.ns_per_shot_round_p0", p0, "ns");
    // Gadget cost from the noiseless pair: with noise on, dropping the
    // LRCs leaves leakage in place and the extra leaked-qubit work
    // outweighs the gadgets saved, so that difference is not the gadgets.
    const double p0_lrc = sim_ns(*sim0, true);
    add("sim.ns_per_shot_round_p0_lrc", p0_lrc, "ns");
    add("sim.lrc_gadget_ns_per_shot_round", p0_lrc - p0, "ns");

    double decode_us = 0.0, defects = 0.0, residual = 0.0;
    if (graph != nullptr && !cap.syndromes.empty()) {
        gld::UnionFindDecoder decoder(*graph);
        for (const std::vector<uint8_t>& s : cap.syndromes) {
            decoder.decode(s);
            residual += decoder.last_residual() > 0 ? 1.0 : 0.0;
            defects += static_cast<double>(std::count(s.begin(), s.end(), 1));
        }
        const double n = static_cast<double>(cap.syndromes.size());
        defects /= n;
        decode_us = median(repeat_timed(slice, 3, [&] {
                        for (const std::vector<uint8_t>& s : cap.syndromes)
                            decoder.decode(s);
                    })) *
                    1e6 / n;
    }
    add("decode.us_per_shot_replay", decode_us, "us");
    add("decode.defects_per_shot", defects, "1/shot");
    add("decode.residual_shots", residual, "count");
    add("decode.graph_nodes", graph ? graph->n_nodes() : 0.0, "count");
    add("decode.graph_edges",
        graph ? static_cast<double>(graph->edges().size()) : 0.0, "count");
    add("decode.dem_build_ms", dem_ms.empty() ? 0.0 : median(dem_ms), "ms");
    return out;
}

}  // namespace paperbench
