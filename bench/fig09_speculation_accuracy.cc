// Figure 9: False Negative (FN), False Positive (FP) and LRC counts for the
// policy lineup on the distance-7 surface code with p = 1e-3, pl = 1e-4.
//
// Ported onto the campaign subsystem: the sweep is a CampaignSpec whose
// jobs run through run_shard/merge_campaign, so this generator is
// resumable (re-running skips up-to-date jobs via the checkpoint files in
// GLD_CAMPAIGN_OUT, default ./fig09_campaign) and shardable — with
// GLD_CAMPAIGN_SHARDS=N this binary uses the N-shard plan: run
//   gld_campaign run --spec fig09_campaign/fig09.spec.json
//       --shard i/N --out fig09_campaign
// on N machines first, collect the result files into the out dir, and
// the resume check skips those shards here instead of recomputing them
// (any missing shard is computed locally).  Changing GLD_SHOTS_SCALE
// changes the per-job config hash, so stale checkpoints are recomputed
// automatically.

#include <cstdlib>

#include "bench_common.h"
#include "campaign/campaign.h"
#include "io/json.h"

using namespace gld;
using namespace gld::bench;

int
main()
{
    banner("Figure 9 - Speculation accuracy and LRC usage",
           "FN/FP/LRC counts, surface code d=7, p=1e-3, lr=0.1");

    // The sweep as a campaign grid: one code, one noise point, the
    // speculation-policy lineup.  Policy order fixes job order.
    campaign::CampaignSpec spec;
    spec.name = "fig09";
    spec.seed = 0x5EED5EEDull;
    spec.shots = BenchConfig::shots(300);
    spec.rounds = 70;  // 10d, as in the paper's Fig 12 horizon
    spec.leakage_sampling = true;
    spec.backend = backend_from_env();
    spec.noise_sampling = noise_sampling_from_env();
    spec.codes = {"surface:7"};
    spec.noise = {NoiseParams::standard(1e-3, 0.1)};
    // One paired list: registry name + the paper's display name, so the
    // two cannot drift apart when the lineup is edited.
    const std::vector<std::pair<std::string, std::string>> lineup = {
        {"eraser", "ERASER"},
        {"gladiator", "GLADIATOR"},
        {"gladiator_d", "GLADIATOR-D"},
        {"eraser_m", "ERASER+M"},
        {"gladiator_m", "GLADIATOR+M"},
        {"gladiator_d_m", "GLADIATOR-D+M"},
    };
    for (const auto& entry : lineup)
        spec.policies.push_back(entry.first);

    const char* env_out = std::getenv("GLD_CAMPAIGN_OUT");
    const std::string out_dir =
        env_out != nullptr ? env_out : "fig09_campaign";
    const int n_shards = env_int("GLD_CAMPAIGN_SHARDS", 1, 1);
    io::make_dirs(out_dir);
    io::write_file_atomic(out_dir + "/fig09.spec.json",
                          spec.to_json().dump(2) + "\n");
    // The config hash fingerprints the configuration, not the binary:
    // GLD_CAMPAIGN_FRESH=1 (the CTest crash-gate environment) discards
    // checkpoints so the CURRENT build is what actually executes.
    const char* fresh = std::getenv("GLD_CAMPAIGN_FRESH");
    if (fresh != nullptr && fresh[0] == '1')
        campaign::remove_results(spec, n_shards, out_dir);
    // Every shard of the plan runs here unless its result file is
    // already present and valid — i.e. shards computed elsewhere with
    // `gld_campaign run --shard i/N` are resumed, not recomputed.
    for (int shard = 0; shard < n_shards; ++shard)
        campaign::run_shard(spec, shard, n_shards, out_dir,
                            BenchConfig::threads());
    const std::vector<Metrics> results =
        campaign::merge_campaign(spec, n_shards, out_dir);

    TablePrinter t({"Policy", "FN/shot", "FP/shot", "LRC/shot",
                    "FP vs ERASER+M", "LRC vs ERASER+M"});
    double er_fp = 0, er_lrc = 0;
    for (size_t i = 0; i < lineup.size(); ++i) {
        if (lineup[i].first == "eraser_m") {
            er_fp = results[i].fp_per_shot();
            er_lrc = results[i].lrc_per_shot();
        }
    }
    for (size_t i = 0; i < lineup.size(); ++i) {
        const Metrics& m = results[i];
        t.add_row({lineup[i].second, TablePrinter::fmt(m.fn_per_shot(), 2),
                   TablePrinter::fmt(m.fp_per_shot(), 2),
                   TablePrinter::fmt(m.lrc_per_shot(), 2),
                   er_fp > 0
                       ? TablePrinter::fmt(er_fp / m.fp_per_shot(), 2) + "x"
                       : "-",
                   er_lrc > 0
                       ? TablePrinter::fmt(er_lrc / m.lrc_per_shot(), 2) + "x"
                       : "-"});
    }
    t.print();
    std::printf("\nCampaign checkpoints: %s (delete to force recompute)\n",
                out_dir.c_str());
    std::printf("Paper: GLADIATOR+M reduces FP 1.56x and LRCs 1.53x vs "
                "ERASER+M; GLADIATOR-D+M reduces FP 1.76x and LRCs 1.71x, "
                "with 1.16x/1.22x more FNs.\n");
    return 0;
}
