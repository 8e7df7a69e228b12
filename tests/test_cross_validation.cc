// Cross-validation of the Pauli-frame simulator against the exact CHP
// tableau simulator (the role Stim's tableau engine plays in the paper's
// methodology): both engines execute the same scheduled extraction circuit
// and must agree on syndrome determinism and fault signatures.

#include <gtest/gtest.h>

#include "circuit/round_circuit.h"
#include "codes/surface_code.h"
#include "one_lane.h"
#include "runtime/experiment.h"
#include "sim/frame_sim.h"
#include "sim/tableau_sim.h"
#include "stats/stats.h"

namespace gld {
namespace {

using test::lane0_round;

/** Executes one extraction round on the tableau sim, returning outcomes. */
std::vector<bool>
tableau_round(TableauSim* sim, const RoundCircuit& rc, int n_checks)
{
    std::vector<bool> meas(n_checks, false);
    for (const Op& op : rc.ops()) {
        switch (op.type) {
          case OpType::kResetZ:
            sim->reset_z(op.q0);
            break;
          case OpType::kH:
            sim->h(op.q0);
            break;
          case OpType::kCnot:
            sim->cnot(op.q0, op.q1);
            break;
          case OpType::kMeasure:
            meas[op.mslot] = sim->measure_z(op.q0);
            break;
        }
    }
    return meas;
}

TEST(CrossValidation, NoiselessSyndromesAreDeterministicAfterRoundOne)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    TableauSim sim(code.n_qubits(), 123);
    const auto r1 = tableau_round(&sim, rc, code.n_checks());
    const auto r2 = tableau_round(&sim, rc, code.n_checks());
    const auto r3 = tableau_round(&sim, rc, code.n_checks());
    // Z checks of |0...0> are deterministic 0 from the start.
    for (int c = 0; c < code.n_checks(); ++c) {
        if (code.check(c).type == CheckType::kZ) {
            EXPECT_FALSE(r1[c]);
            EXPECT_FALSE(r2[c]);
        }
        // All checks repeat exactly from round 2 on (no noise).
        EXPECT_EQ(r2[c], r3[c]);
    }
}

TEST(CrossValidation, StabilizersAreInGroupAfterOneRound)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    TableauSim sim(code.n_qubits(), 5);
    tableau_round(&sim, rc, code.n_checks());
    // After projection, every Z stabilizer is a definite +/-1; with all-zero
    // initialization it must be +1.
    for (const auto& check : code.checks()) {
        if (check.type == CheckType::kZ) {
            EXPECT_EQ(sim.z_product_expectation(check.support), +1);
        }
    }
    // The logical Z observable is +1 as well (encoded |0>).
    EXPECT_EQ(sim.z_product_expectation(code.logical_z()), +1);
}

TEST(CrossValidation, XFaultSignatureAgreesBetweenEngines)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);

    for (int q = 0; q < code.n_data(); ++q) {
        // Tableau: prepare, inject X, extract, compare measurement flips.
        TableauSim tab(code.n_qubits(), 77);
        const auto before = tableau_round(&tab, rc, code.n_checks());
        tab.x(q);
        const auto after = tableau_round(&tab, rc, code.n_checks());

        // Frame sim, noiseless, same injection.
        NoiseParams np;
        np.p = 0.0;
        np.leak_ratio = 0.0;
        LeakFrameSim frame(code, rc, np, 3);
        lane0_round(frame);
        frame.inject_pauli_lane(0, q, kPauliX);
        const RoundResult rr = lane0_round(frame);

        for (int c = 0; c < code.n_checks(); ++c) {
            EXPECT_EQ(before[c] != after[c], rr.detector[c] != 0)
                << "qubit " << q << " check " << c;
        }
    }
}

TEST(CrossValidation, ClosedLoopRatesAgreeStatistically)
{
    // The full pipeline — noise, leakage, speculation policy, LRC
    // scheduling, decoding — run end-to-end on both engines, refereed
    // exactly the way `gld_campaign verify` referees a statistical arm:
    // pooled two-proportion z-tests on the Metrics rate samples (LER as
    // a true binomial; FN/FP/DLP on the cluster-robust trajectory trial
    // unit, see Metrics).  The engines draw independent measurement
    // randomness, so agreement here is a genuine closed-loop
    // cross-validation, not a replay.
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard(2e-3, 0.5);
    cfg.rounds = 8;
    cfg.shots = 256;
    cfg.seed = 0xC105EDC0DEull;
    cfg.leakage_sampling = true;
    cfg.compute_ler = true;
    cfg.rng_streams = 8;

    const PolicyFactory policy = PolicyZoo::eraser(/*use_mlr=*/true);
    cfg.backend = SimBackend::kFrame;
    const Metrics frame = ExperimentRunner(ctx, cfg).run(policy);
    cfg.backend = SimBackend::kTableau;
    const Metrics tab = ExperimentRunner(ctx, cfg).run(policy);

    const int n_data = code.n_data();
    const struct {
        const char* name;
        stats::RateSample a, b;
    } checks[] = {
        {"ler", frame.ler_sample(), tab.ler_sample()},
        {"fn", frame.fn_sample(n_data), tab.fn_sample(n_data)},
        {"fp", frame.fp_sample(n_data), tab.fp_sample(n_data)},
        {"dlp", frame.dlp_sample(n_data), tab.dlp_sample(n_data)},
    };
    // Šidák over the 4-test family at a 0.004 total false-failure
    // budget for this pinned seed.
    const double per_test = stats::sidak_alpha(0.004, 4);
    for (const auto& c : checks) {
        const stats::TwoProportionResult r =
            stats::two_proportion_z(c.a, c.b);
        EXPECT_TRUE(r.degenerate || r.identical ||
                    r.p_value >= per_test)
            << c.name << ": " << c.a.rate() << " vs " << c.b.rate()
            << " (z=" << r.z << ", p=" << r.p_value << ")";
    }
}

TEST(CrossValidation, LogicalXFlipsLogicalObservable)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    TableauSim sim(code.n_qubits(), 9);
    tableau_round(&sim, rc, code.n_checks());
    for (int q : code.logical_x())
        sim.x(q);
    // A logical X anticommutes with logical Z but commutes with all
    // stabilizers: syndromes stay quiet, observable flips.
    EXPECT_EQ(sim.z_product_expectation(code.logical_z()), -1);
    for (const auto& check : code.checks()) {
        if (check.type == CheckType::kZ) {
            EXPECT_EQ(sim.z_product_expectation(check.support), +1);
        }
    }
}

}  // namespace
}  // namespace gld
