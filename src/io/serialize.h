#ifndef GLD_IO_SERIALIZE_H_
#define GLD_IO_SERIALIZE_H_

#include <cstdint>
#include <string>

#include "io/json.h"
#include "noise/noise_model.h"
#include "runtime/experiment.h"
#include "runtime/metrics.h"

namespace gld {
namespace io {

/**
 * Versioned JSON serialization of the experiment-facing structs.
 *
 * Format contract (kSerializeVersion):
 *  - Every top-level document carries {"gld_version": 1}; readers reject
 *    versions they do not understand instead of misparsing them.
 *  - All doubles that participate in metric aggregation are encoded as
 *    16-digit hex bit patterns ("0x3fb999999999999a") so that
 *    save → load → merge is BIT-identical to an in-process merge; no
 *    decimal round-trip is trusted anywhere on the merge path.
 *  - uint64 seeds are hex strings too (JSON int64 cannot hold them).
 *
 * Bump kSerializeVersion when a field changes meaning; add new fields
 * with defaults so old files keep loading.
 *
 * Version history:
 *  - 1: initial format.
 *  - 2: ExperimentConfig/CampaignSpec gained "backend" (simulation
 *    backend name).  Version-1 documents still load (backend defaults to
 *    "frame"), but the config HASH now covers the backend field, so
 *    version-1 campaign checkpoints are refused as stale by the
 *    config-hash check rather than silently resumed.
 *  - 3: no field changes; bumped because the shared-LeakageDriver
 *    refactor changed the frame backend's draw sequence (a reset pulse
 *    no longer draws for a leaked ancilla), so frame results under the
 *    same config differ from version-2 binaries.  The hash covers
 *    gld_version, so pre-driver checkpoints are refused as stale
 *    instead of being silently mixed with new-partial streams.
 *  - 4: no field changes; bumped for the batch-backend refactor's two
 *    deliberate draw-sequence deltas: the LeakageDriver now derives an
 *    independent noise stream per SHOT (master.split(shot) at every
 *    reset_shot — what lets the bit-packed batch driver replay shot k
 *    as lane k), and the scheduler's shot block grew from 32 to 64 to
 *    align with the 64-lane batch width.  Same-config results differ
 *    from version-3 binaries on every backend, so pre-batch campaign
 *    checkpoints are refused as stale via the hashed version.
 *  - 4 (no bump): ExperimentConfig/CampaignSpec gained "batch_words"
 *    (the K-word batch width, result-affecting because it sets the
 *    scheduler block size).  Serialized ONLY when != 1: absence means 1,
 *    so every existing document and config hash is unchanged, and only
 *    genuinely-new K>1 configs hash differently.
 *  - 5: no field changes; bumped because the batch backends became one
 *    64-lane word wide.  A 64*K-shot block now runs as K one-word
 *    batches, so at K > 1 the sparse batch backends draw one event
 *    stream per 64-lane batch (not one per block) and batch_tableau
 *    runs 64 tableaux (not 64*K).  K = 1 results, the scalar backends
 *    and lockstep batch_frame are unchanged at every K, but the hashed
 *    version retires every version-4 checkpoint rather than mixing
 *    redrawn K > 1 partials with old ones.
 */
constexpr int kSerializeVersion = 5;

/** IEEE-754 binary64 → "0x<16 hex digits>" (bit_cast, exact). */
std::string f64_to_hex(double v);
/** Inverse of f64_to_hex; throws std::runtime_error on malformed input. */
double f64_from_hex(const std::string& s);

/** uint64 → "0x<hex>" and back (used for seeds and hashes). */
std::string u64_to_hex(uint64_t v);
uint64_t u64_from_hex(const std::string& s);

// --- NoiseParams. ---
Json noise_to_json(const NoiseParams& np);
/**
 * Throws std::invalid_argument, naming the field, when p, pl(),
 * mlr_err(), mobility, lrc_depol() or lrc_leak() is outside [0, 1].
 */
NoiseParams noise_from_json(const Json& j);

/**
 * j[key] as an int.  Throws std::runtime_error naming `what` and `key`
 * unless lo <= value <= hi, so an untrusted count is refused rather than
 * truncated or run as some other value.
 */
int int_in_range(const Json& j, const char* key, int64_t lo, int64_t hi,
                 const char* what);

// --- ExperimentConfig (embeds NoiseParams). ---
Json config_to_json(const ExperimentConfig& cfg);
/**
 * Throws std::runtime_error, naming the field, unless shots, rounds and
 * rng_streams are in [1, INT_MAX] and batch_words in [1, kMaxBatchWords].
 */
ExperimentConfig config_from_json(const Json& j);

/**
 * Stable 64-bit fingerprint of a config: FNV-1a over the canonical
 * compact dump of config_to_json().  Used by checkpoint/resume to refuse
 * result files written under a different configuration.
 */
uint64_t config_hash(const ExperimentConfig& cfg);

// --- Metrics (bit-exact, including dlp_series). ---
Json metrics_to_json(const Metrics& m);
Metrics metrics_from_json(const Json& j);

/** FNV-1a 64 over arbitrary bytes (exposed for campaign ids). */
uint64_t fnv1a64(const std::string& bytes);

}  // namespace io
}  // namespace gld

#endif  // GLD_IO_SERIALIZE_H_
