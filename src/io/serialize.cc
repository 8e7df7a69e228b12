#include "io/serialize.h"

#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace gld {
namespace io {

namespace {

void
check_version(const Json& j, const char* what)
{
    // Readers accept every version up to the current one; fields added
    // since the document was written take their defaults.
    const int64_t v = j["gld_version"].as_int();
    if (v < 1 || v > kSerializeVersion)
        throw std::runtime_error(std::string(what) + ": unsupported "
                                 "gld_version " + std::to_string(v) +
                                 " (this build reads versions 1.." +
                                 std::to_string(kSerializeVersion) + ")");
}

uint64_t
parse_hex64(const std::string& s, const char* what)
{
    if (s.size() < 3 || s.size() > 18 || s[0] != '0' ||
        (s[1] != 'x' && s[1] != 'X'))
        throw std::runtime_error(std::string(what) + ": expected 0x-prefixed "
                                 "hex, got \"" + s + "\"");
    uint64_t v = 0;
    for (size_t i = 2; i < s.size(); ++i) {
        const char c = s[i];
        v <<= 4;
        if (c >= '0' && c <= '9')
            v |= static_cast<uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            v |= static_cast<uint64_t>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F')
            v |= static_cast<uint64_t>(c - 'A' + 10);
        else
            throw std::runtime_error(std::string(what) +
                                     ": bad hex digit in \"" + s + "\"");
    }
    return v;
}

/** Throws std::invalid_argument naming `field` unless 0 <= value <= 1. */
void
check_probability(const char* field, double value)
{
    if (!(value >= 0.0 && value <= 1.0))  // also rejects NaN
        throw std::invalid_argument("NoiseParams: " + std::string(field) +
                                    " = " + std::to_string(value) +
                                    " is not a probability in [0, 1]");
}

}  // namespace

int
int_in_range(const Json& j, const char* key, int64_t lo, int64_t hi,
             const char* what)
{
    const int64_t v = j[key].as_int();
    if (v < lo || v > hi)
        throw std::runtime_error(std::string(what) + ": " + key + " = " +
                                 std::to_string(v) + " is outside [" +
                                 std::to_string(lo) + ", " +
                                 std::to_string(hi) + "]");
    return static_cast<int>(v);
}

std::string
f64_to_hex(double v)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v), "binary64 expected");
    std::memcpy(&bits, &v, sizeof(bits));
    char buf[20];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(bits));
    return buf;
}

double
f64_from_hex(const std::string& s)
{
    const uint64_t bits = parse_hex64(s, "f64_from_hex");
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
u64_to_hex(uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

uint64_t
u64_from_hex(const std::string& s)
{
    return parse_hex64(s, "u64_from_hex");
}

// --- NoiseParams. ---
// Noise fields are user-facing physics numbers: serialized as plain JSON
// doubles (%.17g round-trips binary64 exactly) so spec files stay
// hand-editable; the hash path goes through the same canonical dump.

Json
noise_to_json(const NoiseParams& np)
{
    Json j = Json::object();
    j.set("p", Json::number(np.p));
    j.set("leak_ratio", Json::number(np.leak_ratio));
    j.set("mlr_ratio", Json::number(np.mlr_ratio));
    j.set("mobility", Json::number(np.mobility));
    j.set("lrc_gate_factor", Json::number(np.lrc_gate_factor));
    j.set("lrc_leak_prob", Json::number(np.lrc_leak_prob));
    j.set("leaked_gate_backaction", Json::boolean(np.leaked_gate_backaction));
    return j;
}

NoiseParams
noise_from_json(const Json& j)
{
    NoiseParams np;
    np.p = j["p"].as_double();
    np.leak_ratio = j["leak_ratio"].as_double();
    np.mlr_ratio = j["mlr_ratio"].as_double();
    np.mobility = j["mobility"].as_double();
    np.lrc_gate_factor = j["lrc_gate_factor"].as_double();
    np.lrc_leak_prob = j["lrc_leak_prob"].as_double();
    np.leaked_gate_backaction = j["leaked_gate_backaction"].as_bool();
    // Every reader of specs, configs and checkpoints comes through here,
    // so an untrusted document cannot run with an impossible rate.
    check_probability("p", np.p);
    check_probability("pl()", np.pl());
    check_probability("mlr_err()", np.mlr_err());
    check_probability("mobility", np.mobility);
    check_probability("lrc_depol()", np.lrc_depol());
    check_probability("lrc_leak()", np.lrc_leak());
    return np;
}

// --- ExperimentConfig. ---

Json
config_to_json(const ExperimentConfig& cfg)
{
    Json j = Json::object();
    j.set("gld_version", Json::integer(kSerializeVersion));
    j.set("noise", noise_to_json(cfg.np));
    j.set("rounds", Json::integer(cfg.rounds));
    j.set("shots", Json::integer(cfg.shots));
    j.set("seed", Json::str(u64_to_hex(cfg.seed)));
    j.set("leakage_sampling", Json::boolean(cfg.leakage_sampling));
    j.set("compute_ler", Json::boolean(cfg.compute_ler));
    j.set("record_dlp_series", Json::boolean(cfg.record_dlp_series));
    j.set("rng_streams", Json::integer(cfg.rng_streams));
    j.set("backend", Json::str(backend_name(cfg.backend)));
    // noise_sampling is RESULT-AFFECTING on the batch backends (sparse
    // draws a different, verify-qualified sequence) so it must be hashed
    // — but only when != lockstep, keeping every existing document and
    // config hash byte-identical (absence == lockstep, no version bump).
    if (cfg.noise_sampling != NoiseSampling::kLockstep)
        j.set("noise_sampling",
              Json::str(noise_sampling_name(cfg.noise_sampling)));
    // cfg.threads is deliberately NOT serialized: it does not affect
    // results (determinism contract) and must not affect the config hash.
    return j;
}

uint64_t
fnv1a64(const std::string& bytes)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

uint64_t
config_hash(const ExperimentConfig& cfg)
{
    return fnv1a64(config_to_json(cfg).dump());
}

// --- Metrics. ---

Json
metrics_to_json(const Metrics& m)
{
    Json j = Json::object();
    j.set("gld_version", Json::integer(kSerializeVersion));
    j.set("shots", Json::integer(m.shots));
    j.set("rounds_per_shot", Json::integer(m.rounds_per_shot));
    j.set("fn_total", Json::str(f64_to_hex(m.fn_total)));
    j.set("fp_total", Json::str(f64_to_hex(m.fp_total)));
    j.set("tp_total", Json::str(f64_to_hex(m.tp_total)));
    j.set("lrc_data_total", Json::str(f64_to_hex(m.lrc_data_total)));
    j.set("lrc_check_total", Json::str(f64_to_hex(m.lrc_check_total)));
    Json series = Json::array();
    for (double v : m.dlp_series)
        series.push(Json::str(f64_to_hex(v)));
    j.set("dlp_series", std::move(series));
    j.set("dlp_total", Json::str(f64_to_hex(m.dlp_total)));
    j.set("check_leak_total", Json::str(f64_to_hex(m.check_leak_total)));
    j.set("logical_errors", Json::integer(m.logical_errors));
    j.set("decoded_shots", Json::integer(m.decoded_shots));
    return j;
}

Metrics
metrics_from_json(const Json& j)
{
    check_version(j, "Metrics");
    Metrics m;
    m.shots = j["shots"].as_int();
    m.rounds_per_shot = j["rounds_per_shot"].as_int();
    m.fn_total = f64_from_hex(j["fn_total"].as_str());
    m.fp_total = f64_from_hex(j["fp_total"].as_str());
    m.tp_total = f64_from_hex(j["tp_total"].as_str());
    m.lrc_data_total = f64_from_hex(j["lrc_data_total"].as_str());
    m.lrc_check_total = f64_from_hex(j["lrc_check_total"].as_str());
    const Json& series = j["dlp_series"];
    m.dlp_series.reserve(series.size());
    for (size_t i = 0; i < series.size(); ++i)
        m.dlp_series.push_back(f64_from_hex(series.at(i).as_str()));
    m.dlp_total = f64_from_hex(j["dlp_total"].as_str());
    m.check_leak_total = f64_from_hex(j["check_leak_total"].as_str());
    m.logical_errors = j["logical_errors"].as_int();
    m.decoded_shots = j["decoded_shots"].as_int();
    return m;
}

}  // namespace io
}  // namespace gld
