#include "sim/simulator.h"

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "runtime/experiment.h"
#include "sim/batch_frame_sim.h"
#include "sim/frame_sim.h"
#include "sim/lane_span.h"
#include "sim/tableau_leak_sim.h"

namespace gld {

namespace {

/**
 * The one backend table: enum value + canonical name + RNG contract id.
 * backend_name, backend_from_name, known_backends, backend_rng_contract
 * and make_simulator all derive from it, so a new backend registers
 * exactly once and every error message lists it automatically.
 *
 * rng_contract groups backends that replay the SAME (seed, stream,
 * block) draw sequence: frame and batch_frame share contract 0 (lane l
 * of a block's j-th batch is scalar shot 64*j+l draw for draw), so
 * their Metrics are bit-identical by construction and the verify referee
 * compares them bit-exactly.  The tableau engine draws its own
 * measurement-collapse randomness (contract 1) and agrees with them only
 * statistically.
 *
 * sparse_rng_contract is the contract id the backend moves to under
 * NoiseSampling::kSparse: the batch engine switches to an event-driven
 * scalar stream per (stream, block) work unit (contract 3 — a draw
 * sequence no lockstep engine replays), while the scalar engines ignore
 * the knob and keep their lockstep ids.
 */
struct BackendEntry {
    SimBackend backend;
    const char* name;
    int rng_contract;
    int sparse_rng_contract;
};

constexpr BackendEntry kBackendTable[] = {
    {SimBackend::kFrame, "frame", 0, 0},
    {SimBackend::kTableau, "tableau", 1, 1},
    {SimBackend::kBatchFrame, "batch_frame", 0, 3},
};

/**
 * The one noise-sampling table, mirroring kBackendTable: enum value +
 * canonical name.  noise_sampling_name / _from_name / _from_env all
 * derive from it.
 */
struct NoiseSamplingEntry {
    NoiseSampling sampling;
    const char* name;
};

constexpr NoiseSamplingEntry kNoiseSamplingTable[] = {
    {NoiseSampling::kLockstep, "lockstep"},
    {NoiseSampling::kSparse, "sparse"},
};

[[noreturn]] void
throw_unknown_backend(const std::string& what)
{
    throw std::runtime_error(what + " (known backends: " +
                             known_backend_names() + ")");
}

[[noreturn]] void
throw_unknown_sampling(const std::string& what)
{
    throw std::runtime_error(what + " (known noise sampling modes: " +
                             known_noise_sampling_names() + ")");
}

}  // namespace

void
check_lrc_schedule(const LrcSchedule& sched, int lane, int n_data,
                   int n_checks)
{
    const auto check = [lane](const std::vector<int>& ids, int n,
                              const char* what) {
        int prev = -1;
        for (int id : ids) {
            const bool in_range = id >= 0 && id < n;
            if (!in_range || id <= prev)
                throw std::invalid_argument(
                    "lane " + std::to_string(lane) +
                    " schedules an LRC on " + what + " " +
                    std::to_string(id) +
                    (in_range ? " out of ascending order or twice"
                              : " outside [0, " + std::to_string(n) + ")"));
            prev = id;
        }
    };
    check(sched.data_qubits, n_data, "data qubit");
    check(sched.checks, n_checks, "check");
}

void
LrcWords::add_lane(const LrcSchedule& s, int lane)
{
    for (int q : s.data_qubits)
        data[static_cast<size_t>(q)] |= 1ull << lane;
    for (int c : s.checks)
        checks[static_cast<size_t>(c)] |= 1ull << lane;
}

void
BatchSimulator::run_round_batch(const LrcWords& lrc)
{
    if (lrc.data.size() != static_cast<size_t>(n_data_) ||
        lrc.checks.size() != static_cast<size_t>(n_checks_))
        throw std::invalid_argument(
            "run_round_batch: LRC masks of " +
            std::to_string(lrc.data.size()) + " data and " +
            std::to_string(lrc.checks.size()) + " check words, expected " +
            std::to_string(n_data_) + " and " + std::to_string(n_checks_));
    run_round_words(lrc);
}

void
BatchSimulator::run_round_batch(const std::vector<LrcSchedule>& lane_lrcs,
                                std::vector<RoundResult>* out)
{
    const int lanes = n_lanes();
    if (lane_lrcs.size() < static_cast<size_t>(lanes))
        throw std::invalid_argument(
            "run_round_batch: " + std::to_string(lane_lrcs.size()) +
            " schedules for " + std::to_string(lanes) + " lanes");
    // Every schedule is checked before any is packed, so a bad one
    // leaves the batch untouched.
    for (int l = 0; l < lanes; ++l)
        check_lrc_schedule(lane_lrcs[static_cast<size_t>(l)], l, n_data_,
                           n_checks_);
    packed_.reset(n_data_, n_checks_);
    for (int l = 0; l < lanes; ++l)
        packed_.add_lane(lane_lrcs[static_cast<size_t>(l)], l);
    run_round_words(packed_);
    if (out != nullptr)
        round_words_to_results(meas_flip_words(), detector_words(),
                               mlr_words(), n_checks_, lanes, out);
}

const char*
backend_name(SimBackend backend)
{
    for (const BackendEntry& e : kBackendTable) {
        if (e.backend == backend)
            return e.name;
    }
    throw_unknown_backend("invalid SimBackend value " +
                          std::to_string(static_cast<int>(backend)));
}

const std::vector<SimBackend>&
known_backends()
{
    static const std::vector<SimBackend> all = [] {
        std::vector<SimBackend> v;
        for (const BackendEntry& e : kBackendTable)
            v.push_back(e.backend);
        return v;
    }();
    return all;
}

std::string
known_backend_names()
{
    std::string names;
    for (const BackendEntry& e : kBackendTable) {
        if (!names.empty())
            names += ", ";
        names += e.name;
    }
    return names;
}

SimBackend
backend_from_name(const std::string& name)
{
    for (const BackendEntry& e : kBackendTable) {
        if (name == e.name)
            return e.backend;
    }
    throw_unknown_backend("unknown simulation backend \"" + name + "\"");
}

int
backend_rng_contract(SimBackend backend, NoiseSampling sampling)
{
    for (const BackendEntry& e : kBackendTable) {
        if (e.backend == backend) {
            return sampling == NoiseSampling::kSparse ? e.sparse_rng_contract
                                                      : e.rng_contract;
        }
    }
    throw_unknown_backend("invalid SimBackend value " +
                          std::to_string(static_cast<int>(backend)));
}

const char*
noise_sampling_name(NoiseSampling sampling)
{
    for (const NoiseSamplingEntry& e : kNoiseSamplingTable) {
        if (e.sampling == sampling)
            return e.name;
    }
    throw_unknown_sampling("invalid NoiseSampling value " +
                           std::to_string(static_cast<int>(sampling)));
}

std::string
known_noise_sampling_names()
{
    std::string names;
    for (const NoiseSamplingEntry& e : kNoiseSamplingTable) {
        if (!names.empty())
            names += ", ";
        names += e.name;
    }
    return names;
}

NoiseSampling
noise_sampling_from_name(const std::string& name)
{
    for (const NoiseSamplingEntry& e : kNoiseSamplingTable) {
        if (name == e.name)
            return e.sampling;
    }
    throw_unknown_sampling("unknown noise sampling mode \"" + name + "\"");
}

NoiseSampling
noise_sampling_from_env()
{
    const char* s = std::getenv("GLD_NOISE_SAMPLING");
    if (s == nullptr || s[0] == '\0')
        return ExperimentConfig{}.noise_sampling;
    try {
        return noise_sampling_from_name(s);
    } catch (const std::runtime_error&) {
        throw_unknown_sampling("GLD_NOISE_SAMPLING=\"" + std::string(s) +
                               "\" names no noise sampling mode");
    }
}

SimBackend
backend_from_env()
{
    const char* s = std::getenv("GLD_BACKEND");
    if (s == nullptr || s[0] == '\0')
        return ExperimentConfig{}.backend;
    try {
        return backend_from_name(s);
    } catch (const std::runtime_error&) {
        throw_unknown_backend("GLD_BACKEND=\"" + std::string(s) +
                              "\" names no simulation backend");
    }
}

std::unique_ptr<BatchSimulator>
make_simulator(SimBackend backend, const CssCode& code,
               const RoundCircuit& rc, const NoiseParams& np, uint64_t seed,
               int batch_words, NoiseSampling noise_sampling)
{
    // Vestige kept for paperbench (ROADMAP 1(d) deletes it): a block is
    // one 64-lane batch, so only 1 is accepted, for every backend.
    if (batch_words != 1) {
        throw std::invalid_argument("make_simulator: batch_words " +
                                    std::to_string(batch_words) +
                                    " is not 1 (the block multiplier was "
                                    "removed)");
    }
    switch (backend) {
      case SimBackend::kFrame:
        return std::make_unique<LeakFrameSim>(code, rc, np, seed);
      case SimBackend::kTableau:
        return std::make_unique<TableauLeakSim>(code, rc, np, seed);
      case SimBackend::kBatchFrame:
        return std::make_unique<BatchFrameSim>(code, rc, np, seed,
                                               noise_sampling);
    }
    throw_unknown_backend("make_simulator: invalid SimBackend value " +
                          std::to_string(static_cast<int>(backend)));
}

}  // namespace gld
