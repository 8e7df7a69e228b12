// Figure 5: LRCs inserted per observed 4-bit syndrome pattern, split by
// whether the data qubit was actually leaked (golden bar) or not (purple
// bar), for ERASER+M vs GLADIATOR+M on the d=7 surface code.

#include <map>

#include "bench_common.h"
#include "sim/frame_sim.h"
#include "util/prefix_code.h"

using namespace gld;
using namespace gld::bench;

namespace {

struct Histogram {
    // pattern -> (LRCs with leakage, LRCs without leakage)
    std::map<uint32_t, std::pair<long, long>> counts;
};

Histogram
run_policy(const CodeBundle& bundle, const NoiseParams& np, Policy* policy,
           int shots, int rounds)
{
    Histogram h;
    LeakFrameSim sim(bundle.code, bundle.rc, np, 99);
    Rng shot_rng(4242);
    std::vector<LrcSchedule> sched(1);
    std::vector<RoundResult> results;
    for (int s = 0; s < shots; ++s) {
        sim.reset_shot_batch(1);
        policy->begin_shot();
        sched[0].clear();
        sim.inject_data_leak_lane(
            0, static_cast<int>(shot_rng.uniform_int(bundle.code.n_data())));
        for (int r = 0; r < rounds; ++r) {
            sim.run_round_batch(sched, &results);
            const RoundResult& rr = results[0];
            policy->observe(r, rr, &sched[0]);
            for (int q : sched[0].data_qubits) {
                if (bundle.ctx.degree_of(q) != 4)
                    continue;  // Fig 5 shows the 4-bit bulk patterns
                const uint32_t pat = bundle.ctx.pattern_of(q, rr.detector);
                if (sim.lane_oracle(0).data_leaked(q))
                    ++h.counts[pat].first;
                else
                    ++h.counts[pat].second;
            }
        }
    }
    return h;
}

}  // namespace

int
main()
try {
    banner("Figure 5 - Per-pattern LRC histogram",
           "LRCs by 4-bit pattern, with/without leakage, surface d=7");

    auto bundle = surface(7);
    const NoiseParams np = NoiseParams::standard(1e-3, 0.1);
    const int shots = BenchConfig::shots(400);
    const int rounds = 70;

    auto er_tables = PolicyZoo::eraser(true);
    auto gl_tables = PolicyZoo::gladiator(true, np);
    auto er = er_tables(bundle->ctx, 1);
    auto gl = gl_tables(bundle->ctx, 2);

    const Histogram he = run_policy(*bundle, np, er.get(), shots, rounds);
    const Histogram hg = run_policy(*bundle, np, gl.get(), shots, rounds);

    PrefixTagCodec codec(4);
    TablePrinter t({"pattern", "ER+M leaked", "ER+M clean", "GL+M leaked",
                    "GL+M clean"});
    long er_clean = 0, gl_clean = 0, er_all = 0, gl_all = 0;
    for (uint32_t pat = 1; pat < 16; ++pat) {
        const auto e = he.counts.count(pat) ? he.counts.at(pat)
                                            : std::pair<long, long>{0, 0};
        const auto g = hg.counts.count(pat) ? hg.counts.at(pat)
                                            : std::pair<long, long>{0, 0};
        er_clean += e.second;
        gl_clean += g.second;
        er_all += e.first + e.second;
        gl_all += g.first + g.second;
        t.add_row({codec.to_string(codec.encode(pat, 4)).substr(1),
                   std::to_string(e.first), std::to_string(e.second),
                   std::to_string(g.first), std::to_string(g.second)});
    }
    t.print();
    std::printf("\nUnnecessary (clean) LRCs: ERASER+M %ld vs GLADIATOR+M %ld "
                "(%.2fx reduction); total LRCs %ld vs %ld.\n",
                er_clean, gl_clean,
                gl_clean > 0 ? static_cast<double>(er_clean) / gl_clean : 0.0,
                er_all, gl_all);
    std::printf("Paper Fig 5: ERASER fires on frequent non-leakage patterns "
                "(e.g. 0011); GLADIATOR suppresses them.\n");
    return 0;
} catch (const std::exception& e) {
    return report_failure("fig05_pattern_histogram", e);
}
