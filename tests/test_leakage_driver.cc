// Direct unit tests of the shared LeakageDriver over a scripted mock
// state: the driver's primitive-call sequences per gadget (quiet round,
// malfunction, mobility transport, MLR, LRC data/check), plus the drift
// gate — both real backends must route through the one driver, so no
// duplicated leak-flag code path can exist.

#include "sim/leakage_driver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "codes/surface_code.h"
#include "sim/batch_driver.h"
#include "sim/op_profile.h"
#include "sim/simulator.h"

namespace gld {
namespace {

/**
 * StatePrimitives that records every call the driver makes, in order.
 * measure_z returns a scripted constant, so the "state" is pure script —
 * what's under test is exactly the driver's decision sequence.
 */
struct ScriptedState final : StatePrimitives {
    std::vector<std::string> log;
    uint8_t measure_result = 0;

    static std::string q(int v) { return std::to_string(v); }

    void reset_state() override { log.push_back("reset_state"); }
    void apply_pauli(int qq, uint32_t pauli) override
    {
        log.push_back("pauli " + q(qq) + " p" + std::to_string(pauli));
    }
    void coherent_cnot(int control, int target) override
    {
        log.push_back("cnot " + q(control) + " " + q(target));
    }
    void hadamard(int qq) override { log.push_back("h " + q(qq)); }
    void reset_z(int qq) override { log.push_back("reset_z " + q(qq)); }
    uint8_t measure_z(int qq) override
    {
        log.push_back("measure " + q(qq));
        return measure_result;
    }
    void park_leaked(int qq) override { log.push_back("park " + q(qq)); }

    /** Entries whose op name matches and that mention qubit `qq`. */
    int count(const std::string& op, int qq) const
    {
        int n = 0;
        for (const std::string& e : log) {
            if (e.rfind(op + " ", 0) != 0)
                continue;
            const std::string rest = e.substr(op.size() + 1);
            // Match "qq" as a full token.
            const std::string tok = q(qq);
            size_t pos = 0;
            while ((pos = rest.find(tok, pos)) != std::string::npos) {
                const bool left_ok = pos == 0 || rest[pos - 1] == ' ';
                const size_t end = pos + tok.size();
                const bool right_ok = end == rest.size() ||
                                      rest[end] == ' ';
                if (left_ok && right_ok) {
                    ++n;
                    break;
                }
                pos = end;
            }
        }
        return n;
    }
};

NoiseParams
noiseless()
{
    NoiseParams np;
    np.p = 0.0;
    np.leak_ratio = 0.0;
    np.lrc_leak_prob = 0.0;
    return np;
}

struct Harness {
    CssCode code;
    RoundCircuit rc;
    ScriptedState state;
    LeakageDriver driver;

    explicit Harness(NoiseParams np, uint64_t seed = 1)
        : code(SurfaceCode::make(3)), rc(code),
          driver(code, rc, np, Rng(seed), &state)
    {
    }
};

/** The expected primitive-call log of one quiet (noiseless, leak-free)
 *  round: exactly the scheduled circuit, one primitive per op. */
std::vector<std::string>
quiet_round_golden(const RoundCircuit& rc)
{
    std::vector<std::string> want;
    for (const Op& op : rc.ops()) {
        switch (op.type) {
          case OpType::kResetZ:
            want.push_back("reset_z " + std::to_string(op.q0));
            break;
          case OpType::kH:
            want.push_back("h " + std::to_string(op.q0));
            break;
          case OpType::kCnot:
            want.push_back("cnot " + std::to_string(op.q0) + " " +
                           std::to_string(op.q1));
            break;
          case OpType::kMeasure:
            want.push_back("measure " + std::to_string(op.q0));
            break;
        }
    }
    return want;
}

TEST(LeakageDriver, QuietRoundGoldenCallSequence)
{
    Harness h(noiseless());
    const RoundResult rr = h.driver.run_round(LrcSchedule{});
    EXPECT_EQ(h.state.log, quiet_round_golden(h.rc));
    for (int c = 0; c < h.code.n_checks(); ++c) {
        EXPECT_EQ(rr.detector[static_cast<size_t>(c)], 0);
        EXPECT_EQ(rr.mlr_flag[static_cast<size_t>(c)], 0);
    }
}

TEST(LeakageDriver, ResetShotResetsFlagsAndState)
{
    Harness h(noiseless());
    h.driver.set_leak(0);
    EXPECT_EQ(h.driver.n_data_leaked(), 1);
    h.driver.reset_shot();
    EXPECT_EQ(h.driver.n_data_leaked(), 0);
    EXPECT_EQ(h.state.log.back(), "reset_state");
}

TEST(LeakageDriver, SetLeakFiresParkHookOnceAndOnlyOnRise)
{
    Harness h(noiseless());
    h.driver.set_leak(2);
    h.driver.set_leak(2);  // already leaked: no second park
    EXPECT_EQ(h.state.log,
              (std::vector<std::string>{"park 2"}));
    h.driver.clear_leak(2);
    h.driver.set_leak(2);  // rise again after a clear: park fires again
    EXPECT_EQ(h.state.count("park", 2), 2);
    EXPECT_EQ(h.state.log.size(), 2u);
}

TEST(LeakageDriver, LeakedAncillaMalfunctionsItsCnotsAndSkipsMeasure)
{
    // A leaked Z-check ancilla: every CNOT at it loses its coherent
    // action and disturbs the DATA partner with a full random Pauli
    // (data partners always get full back-action); the two-level readout
    // never touches the state and MLR reports the truth.
    NoiseParams np = noiseless();
    np.mobility = 0.0;
    Harness h(np);
    const int c = h.code.checks_of_type(CheckType::kZ).front();
    const int anc = h.code.ancilla_of(c);
    h.driver.set_check_leak(c);
    h.state.log.clear();

    const RoundResult rr = h.driver.run_round(LrcSchedule{});

    EXPECT_EQ(h.state.count("cnot", anc), 0);
    EXPECT_EQ(h.state.count("measure", anc), 0);
    EXPECT_EQ(h.state.count("reset_z", anc), 0);  // reset skips |2>
    // Every CNOT of the scheduled circuit that touches anc turned into
    // exactly one full-Pauli disturbance of its data partner.
    int anc_cnots = 0;
    for (const Op& op : h.rc.ops()) {
        if (op.type != OpType::kCnot)
            continue;
        if (op.q0 == anc || op.q1 == anc) {
            ++anc_cnots;
            const int partner = op.q0 == anc ? op.q1 : op.q0;
            EXPECT_EQ(h.state.count("pauli", partner), 1)
                << "partner " << partner;
        }
    }
    EXPECT_EQ(anc_cnots,
              static_cast<int>(h.code.check(c).support.size()));
    EXPECT_EQ(rr.mlr_flag[static_cast<size_t>(c)], 1);
    for (int other = 0; other < h.code.n_checks(); ++other) {
        if (other != c) {
            EXPECT_EQ(rr.mlr_flag[static_cast<size_t>(other)], 0);
        }
    }
    EXPECT_TRUE(h.driver.check_leaked(c));
}

TEST(LeakageDriver, LeakedDataMalfunctionFlipsAncillaMeasuredBasisOnly)
{
    // A leaked data qubit with zero mobility: ancilla partners get the
    // IBM-characterized 50% measured-bit flip — X on a Z-check ancilla
    // (CNOT target), Z on an X-check ancilla (CNOT control) — never a
    // full Pauli, and never a coherent CNOT.
    NoiseParams np = noiseless();
    np.mobility = 0.0;
    Harness h(np, /*seed=*/7);
    const int q = 4;  // bulk data qubit of d=3: in Z- and X-check support
    h.driver.set_leak(q);
    h.state.log.clear();

    h.driver.run_round(LrcSchedule{});

    EXPECT_EQ(h.state.count("cnot", q), 0);
    EXPECT_TRUE(h.driver.data_leaked(q));
    // Collect the allowed flip per adjacent ancilla from the check type.
    for (int c : h.code.data_adjacency()[q]) {
        const int anc = h.code.ancilla_of(c);
        const std::string allowed =
            h.code.check(c).type == CheckType::kZ ? "p1" : "p2";
        for (const std::string& e : h.state.log) {
            if (e.rfind("pauli " + std::to_string(anc) + " ", 0) == 0) {
                EXPECT_EQ(e, "pauli " + std::to_string(anc) + " " +
                                 allowed);
            }
        }
    }
}

TEST(LeakageDriver, MobilityOneTransportsTheLeakWithoutDuplication)
{
    NoiseParams np = noiseless();
    np.mobility = 1.0;  // deterministic transport at the first CNOT
    Harness h(np);
    const int q = 4;
    h.driver.set_leak(q);
    h.state.log.clear();

    h.driver.run_round(LrcSchedule{});

    // The leak moved: the original qubit is clean, the population is
    // still exactly one, and each hop fired the park hook.
    EXPECT_FALSE(h.driver.data_leaked(q));
    EXPECT_EQ(h.driver.n_data_leaked() + h.driver.n_check_leaked(), 1);
    int parks = 0;
    for (const std::string& e : h.state.log)
        parks += e.rfind("park ", 0) == 0 ? 1 : 0;
    EXPECT_GE(parks, 1);
}

TEST(LeakageDriver, LrcDataGadgetIsSilentOnCleanQubits)
{
    // LRC on a non-leaked data qubit with a non-leaked partner: the
    // gadget swaps the state out and back — no primitive calls at all
    // under noiseless gadget noise, and no flags change.
    Harness h(noiseless());
    LrcSchedule sched;
    sched.data_qubits.push_back(0);
    h.driver.run_round(sched);
    EXPECT_EQ(h.state.log, quiet_round_golden(h.rc));
    EXPECT_EQ(h.driver.n_data_leaked(), 0);
    EXPECT_EQ(h.driver.n_check_leaked(), 0);
}

TEST(LeakageDriver, LrcDataGadgetPumpsLeakedPartnerInAndParks)
{
    // False-positive LRC against a leaked partner ancilla: the SWAP pumps
    // the leakage INTO the data qubit (paper §3.3, Limitation 2) — the
    // driver must fire park_leaked for the data qubit BEFORE the round's
    // circuit runs, and clear the ancilla.
    Harness h(noiseless());
    const int q = 0;
    const int pc = h.driver.lrc_partner(q);
    ASSERT_GE(pc, 0);
    h.driver.set_check_leak(pc);
    h.state.log.clear();

    LrcSchedule sched;
    sched.data_qubits.push_back(q);
    h.driver.run_round(sched);

    EXPECT_TRUE(h.driver.data_leaked(q));
    EXPECT_FALSE(h.driver.check_leaked(pc));
    ASSERT_FALSE(h.state.log.empty());
    EXPECT_EQ(h.state.log.front(), "park " + std::to_string(q));
}

TEST(LeakageDriver, LrcCheckGadgetResetsAncillaFirst)
{
    Harness h(noiseless());
    const int c = 2;
    const int anc = h.code.ancilla_of(c);
    h.driver.set_check_leak(c);
    h.state.log.clear();

    LrcSchedule sched;
    sched.checks.push_back(c);
    h.driver.run_round(sched);

    EXPECT_FALSE(h.driver.check_leaked(c));
    ASSERT_FALSE(h.state.log.empty());
    // The gadget's reset is the very first primitive call of the round
    // (start-of-round semantics), before any circuit op.
    EXPECT_EQ(h.state.log.front(), "reset_z " + std::to_string(anc));
}

TEST(LeakageDriver, LeakedFinalReadoutSkipsMeasurePrimitive)
{
    Harness h(noiseless());
    h.driver.set_leak(3);
    h.state.log.clear();
    h.driver.final_data_measure();
    EXPECT_EQ(h.state.count("measure", 3), 0);
    for (int q = 0; q < h.code.n_data(); ++q) {
        if (q != 3) {
            EXPECT_EQ(h.state.count("measure", q), 1) << "qubit " << q;
        }
    }
}

// --- Driver-level instrumentation: the counting decorator + profiles. ---

TEST(OpProfile, QuietRoundCountsEqualTheScheduledCircuitGolden)
{
    // The golden-count gate: a noiseless, leak-free round's primitive
    // counts are exactly the scheduled circuit's op census — one
    // coherent action per gate, one readout per check, no Paulis, no
    // parks.  This pins the instrumentation AND the circuit's gate
    // budget per code family in one place.
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    long cnots = 0, hs = 0, resets = 0, measures = 0;
    for (const Op& op : rc.ops()) {
        switch (op.type) {
          case OpType::kCnot: ++cnots; break;
          case OpType::kH: ++hs; break;
          case OpType::kResetZ: ++resets; break;
          case OpType::kMeasure: ++measures; break;
        }
    }
    const RoundOpProfile profile =
        profile_round_ops(code, rc, noiseless(), LrcSchedule{});
    EXPECT_EQ(profile.quiet.cnots, cnots);
    EXPECT_EQ(profile.quiet.hadamards, hs);
    EXPECT_EQ(profile.quiet.resets, resets);
    EXPECT_EQ(profile.quiet.measures, measures);
    EXPECT_EQ(profile.quiet.paulis, 0);
    EXPECT_EQ(profile.quiet.parks, 0);
    EXPECT_EQ(profile.quiet.resets_state, 0);
    // d=3 golden values: every data qubit meets <= 4 checks, every check
    // has <= 4 CNOTs; the census is a stable property of the scheduler.
    EXPECT_EQ(cnots, 24);
    EXPECT_EQ(measures, code.n_checks());
    EXPECT_EQ(resets, code.n_checks());
    // No LRCs scheduled: zero gadget overhead, bit for bit.
    EXPECT_TRUE(profile.lrc_overhead == OpCounts{});
    EXPECT_TRUE(profile.scheduled == profile.quiet);
}

TEST(OpProfile, CheckLrcOverheadIsOneResetGolden)
{
    // A check-ancilla LRC gadget is a reset-first gadget: exactly one
    // extra reset_z primitive per scheduled check, nothing else, under
    // noiseless gadget noise.
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    LrcSchedule sched;
    sched.checks = {0, 2};
    const RoundOpProfile profile =
        profile_round_ops(code, rc, noiseless(), sched);
    OpCounts want;
    want.resets = 2;
    EXPECT_TRUE(profile.lrc_overhead == want);
}

TEST(OpProfile, CountingStateForwardsToInnerBackend)
{
    // Decorating a real primitives provider must not change what the
    // driver does — the decorated run produces the same round result,
    // and the counts match the undecorated golden trace.
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    ScriptedState inner;
    CountingState counting(&inner);
    LeakageDriver driver(code, rc, noiseless(), Rng(1), &counting);
    driver.run_round(LrcSchedule{});
    EXPECT_EQ(inner.log, quiet_round_golden(rc));
    EXPECT_EQ(counting.counts().cnots,
              static_cast<long>(std::count_if(
                  rc.ops().begin(), rc.ops().end(), [](const Op& op) {
                      return op.type == OpType::kCnot;
                  })));
    counting.reset_counts();
    EXPECT_TRUE(counting.counts() == OpCounts{});
}

TEST(OpProfile, MalfunctionPaulisShowUpInTheProfile)
{
    // A parked leaked data qubit malfunctions its CNOTs: the profile's
    // pauli count exposes the disturbance load — the per-gadget cost
    // signal the hw models consume.
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    NoiseParams np = noiseless();
    np.mobility = 0.0;
    CountingState state;
    LeakageDriver driver(code, rc, np, Rng(7), &state);
    driver.set_leak(4);
    state.reset_counts();
    driver.run_round(LrcSchedule{});
    EXPECT_GT(state.counts().paulis, 0);
    EXPECT_EQ(state.counts().cnots,
              24 - static_cast<long>(code.data_adjacency()[4].size()));
}

// --- Drift gate: the real backends must BE driver-backed simulators. ---

TEST(LeakageDriverDrift, EveryKnownBackendRoutesThroughTheSharedDriver)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    NoiseParams np;
    for (SimBackend b : known_backends()) {
        SCOPED_TRACE(backend_name(b));
        const auto sim = make_simulator(b, code, rc, np, 1);
        // Structural: the backend derives from LeakageDriverSim (scalar
        // driver) or BatchLeakageDriverSim (its lockstep twin) — its
        // round/leak semantics ARE a shared driver's, not a copy.
        const auto* ds = dynamic_cast<const LeakageDriverSim*>(sim.get());
        const auto* bs =
            dynamic_cast<const BatchLeakageDriverSim*>(sim.get());
        ASSERT_TRUE(ds != nullptr || bs != nullptr)
            << "backend routes through neither leakage driver";
        // Its ground-truth oracle is the driver's own flag state.  A lone
        // shot is a one-lane batch on every backend.
        sim->reset_shot_batch(1);
        if (ds != nullptr) {
            EXPECT_EQ(&sim->lane_oracle(0),
                      static_cast<const LeakageOracle*>(&ds->driver()));
        } else {
            EXPECT_EQ(&sim->lane_oracle(0), &bs->driver().lane_oracle(0));
        }
        // And interface-level leak state is the driver's flag state.
        sim->inject_data_leak_lane(0, 1);
        EXPECT_TRUE(sim->lane_oracle(0).data_leaked(1));
        EXPECT_TRUE(ds != nullptr ? ds->driver().data_leaked(1)
                                  : bs->driver().data_leaked(0, 1));
        sim->reset_shot_batch(1);
        EXPECT_FALSE(sim->lane_oracle(0).data_leaked(1));
    }
}

}  // namespace
}  // namespace gld
