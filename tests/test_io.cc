// src/io: JSON round-trip, bit-exact double encoding, versioned
// config/metrics serialization and the config-hash stability contract.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "io/json.h"
#include "io/serialize.h"

namespace gld {
namespace io {
namespace {

uint64_t
bits_of(double v)
{
    uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

TEST(Json, ScalarRoundTrip)
{
    EXPECT_EQ(Json::parse("null").type(), Json::Type::kNull);
    EXPECT_TRUE(Json::parse("true").as_bool());
    EXPECT_FALSE(Json::parse("false").as_bool());
    EXPECT_EQ(Json::parse("-42").as_int(), -42);
    EXPECT_EQ(Json::parse("9007199254740993").as_int(), 9007199254740993ll);
    EXPECT_DOUBLE_EQ(Json::parse("0.25").as_double(), 0.25);
    EXPECT_DOUBLE_EQ(Json::parse("-1e-3").as_double(), -1e-3);
    EXPECT_EQ(Json::parse("\"hi\\nthere\"").as_str(), "hi\nthere");
    EXPECT_EQ(Json::parse("\"\\u0041\\u00e9\"").as_str(), "A\xc3\xa9");
}

TEST(Json, NestedDocumentRoundTrip)
{
    const std::string text =
        "{\"a\":[1,2.5,\"x\"],\"b\":{\"c\":true,\"d\":null},\"e\":-7}";
    const Json j = Json::parse(text);
    EXPECT_EQ(j["a"].size(), 3u);
    EXPECT_EQ(j["a"].at(0).as_int(), 1);
    EXPECT_EQ(j["a"].at(2).as_str(), "x");
    EXPECT_TRUE(j["b"]["c"].as_bool());
    EXPECT_TRUE(j["b"]["d"].is_null());
    // Compact dump is canonical: parse(dump(x)) == dump-identical.
    EXPECT_EQ(Json::parse(j.dump()).dump(), j.dump());
    // Pretty dump parses back to the same canonical form.
    EXPECT_EQ(Json::parse(j.dump(2)).dump(), j.dump());
}

TEST(Json, ObjectPreservesInsertionOrder)
{
    Json j = Json::object();
    j.set("zebra", Json::integer(1));
    j.set("alpha", Json::integer(2));
    j.set("zebra", Json::integer(3));  // overwrite keeps position
    EXPECT_EQ(j.dump(), "{\"zebra\":3,\"alpha\":2}");
}

TEST(Json, Errors)
{
    EXPECT_THROW(Json::parse(""), std::runtime_error);
    EXPECT_THROW(Json::parse("{\"a\":1,}"), std::runtime_error);
    EXPECT_THROW(Json::parse("[1 2]"), std::runtime_error);
    EXPECT_THROW(Json::parse("{} trailing"), std::runtime_error);
    EXPECT_THROW(Json::parse("\"unterminated"), std::runtime_error);
    const Json j = Json::parse("{\"a\":1}");
    EXPECT_THROW(j["missing"], std::runtime_error);
    EXPECT_THROW(j["a"].as_str(), std::runtime_error);
    EXPECT_THROW(j["a"].as_bool(), std::runtime_error);
    // JSON has no inf/nan: dumping one must throw (not emit a document
    // the parser rejects), and overflowing literals must not parse.
    EXPECT_THROW(Json::number(std::numeric_limits<double>::infinity()).dump(),
                 std::runtime_error);
    EXPECT_THROW(Json::number(std::nan("")).dump(), std::runtime_error);
    EXPECT_THROW(Json::parse("1e999"), std::runtime_error);
}

/** The parse error of `text`, or "" if it parses. */
std::string
parse_error(const std::string& text)
{
    try {
        Json::parse(text);
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "";
}

TEST(Json, DeepNestingFailsCleanly)
{
    // Campaign specs and checkpoints are untrusted input: nesting 10^5
    // deep must be a parse error naming the cap, not a stack overflow.
    const std::string cap = std::to_string(Json::kMaxParseDepth);
    const std::string arrays(100000, '[');
    EXPECT_NE(parse_error(arrays).find(cap), std::string::npos);
    std::string objects;
    for (int i = 0; i < 100000; ++i)
        objects += "{\"k\":";
    EXPECT_NE(parse_error(objects).find(cap), std::string::npos);
    // Exactly the cap still parses, one level more does not.
    const int d = Json::kMaxParseDepth;
    const std::string at_cap = std::string(static_cast<size_t>(d), '[') +
                               std::string(static_cast<size_t>(d), ']');
    EXPECT_EQ(parse_error(at_cap), "");
    EXPECT_NE(parse_error("[" + at_cap + "]").find(cap), std::string::npos);
}

TEST(Serialize, F64HexIsBitExact)
{
    const double cases[] = {0.0,
                            -0.0,
                            1.0,
                            0.1,
                            1.0 / 3.0,
                            6.02214076e23,
                            -1.5e-300,
                            std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::min(),
                            std::numeric_limits<double>::max(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()};
    for (double v : cases) {
        const std::string hex = f64_to_hex(v);
        EXPECT_EQ(bits_of(f64_from_hex(hex)), bits_of(v)) << hex;
    }
    // 0.1 + 0.2 != 0.3 must survive the round trip as-is.
    const double drift = 0.1 + 0.2;
    EXPECT_EQ(bits_of(f64_from_hex(f64_to_hex(drift))), bits_of(drift));
    EXPECT_THROW(f64_from_hex("3ff0000000000000"), std::runtime_error);
    EXPECT_THROW(f64_from_hex("0xgg"), std::runtime_error);
    EXPECT_THROW(f64_from_hex("0x00112233445566778899"), std::runtime_error);
}

TEST(Serialize, U64Hex)
{
    EXPECT_EQ(u64_from_hex(u64_to_hex(0ull)), 0ull);
    EXPECT_EQ(u64_from_hex(u64_to_hex(0xFFFFFFFFFFFFFFFFull)),
              0xFFFFFFFFFFFFFFFFull);
    EXPECT_EQ(u64_from_hex("0x5EED5EED"), 0x5EED5EEDull);
}

ExperimentConfig
sample_config()
{
    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard(2e-3, 0.05);
    cfg.np.mobility = 0.13;
    cfg.np.leaked_gate_backaction = true;
    cfg.rounds = 17;
    cfg.shots = 421;
    cfg.seed = 0xDEADBEEFCAFEF00Dull;  // needs the full 64 bits
    cfg.leakage_sampling = true;
    cfg.compute_ler = true;
    cfg.record_dlp_series = true;
    cfg.rng_streams = 5;
    cfg.backend = SimBackend::kFrame;
    // Lockstep documents omit the field, so the pinned hashes below stay
    // the ones every pre-sparse-default checkpoint carries.
    cfg.noise_sampling = NoiseSampling::kLockstep;
    return cfg;
}

TEST(Serialize, NoiseFromJsonRejectsRatesOutsideUnitInterval)
{
    NoiseParams np = sample_config().np;
    np.p = 1.5;
    try {
        noise_from_json(noise_to_json(np));
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("p = "), std::string::npos)
            << e.what();
    }
    np = sample_config().np;
    np.mobility = -0.5;
    EXPECT_THROW(noise_from_json(noise_to_json(np)), std::invalid_argument);
    // The edges are probabilities too.
    np = sample_config().np;
    np.mobility = 1.0;
    EXPECT_NO_THROW(noise_from_json(noise_to_json(np)));
}

TEST(Serialize, ConfigHashStability)
{
    const ExperimentConfig cfg = sample_config();
    // Stable across processes and time: a golden value, not just
    // self-consistency.  If this changes, bump kSerializeVersion — every
    // existing checkpoint file becomes stale.  (v2: the serialized form
    // gained the backend field, which retired the v1 golden.  v3: the
    // shared LeakageDriver changed the frame backend's draw sequence, so
    // the version bump retired every v2 checkpoint — and the v2 golden.
    // v4: per-shot driver RNG streams + the 64-shot scheduler block for
    // the batch backend retired every v3 checkpoint and golden.  v5: the
    // one-word batch engine redrew the K > 1 sparse and batch_tableau
    // blocks, retiring every v4 checkpoint and golden.  v6: the decoding
    // graph's edges came out in canonical (u, v) order, which moves
    // logical_errors, retiring every v5 checkpoint and golden.)
    EXPECT_EQ(config_hash(cfg), 0x7217d4a7f572be8dull);

    // threads must NOT affect the hash (does not affect results)...
    ExperimentConfig t = cfg;
    t.threads = 64;
    EXPECT_EQ(config_hash(t), config_hash(cfg));
    // ...but every result-affecting knob must.
    ExperimentConfig c1 = cfg;
    c1.seed ^= 1;
    EXPECT_NE(config_hash(c1), config_hash(cfg));
    ExperimentConfig c2 = cfg;
    c2.rng_streams = 6;
    EXPECT_NE(config_hash(c2), config_hash(cfg));
    ExperimentConfig c3 = cfg;
    c3.np.p = 2.0000000001e-3;
    EXPECT_NE(config_hash(c3), config_hash(cfg));
    // The backend changes the results, so it must change the hash
    // (switching backends never resumes the other backend's checkpoints).
    ExperimentConfig c4 = cfg;
    c4.backend = SimBackend::kTableau;
    EXPECT_EQ(config_hash(c4), 0xf6cbd81d0d88231eull);
    EXPECT_NE(config_hash(c4), config_hash(cfg));
    // batch_frame is a distinct backend hash-wise too, even though its
    // results are bit-identical to frame: resume stays backend-honest.
    ExperimentConfig c5 = cfg;
    c5.backend = SimBackend::kBatchFrame;
    EXPECT_NE(config_hash(c5), config_hash(cfg));
    EXPECT_NE(config_hash(c5), config_hash(c4));
    // noise_sampling is hashed ONLY when != lockstep: the default leaves
    // every pre-existing document and hash byte-identical (no version
    // bump), while sparse — which redraws the batch backends' randomness
    // — gets its own hash.
    ExperimentConfig c6 = cfg;
    c6.noise_sampling = NoiseSampling::kLockstep;
    EXPECT_EQ(config_hash(c6), config_hash(cfg));
    EXPECT_FALSE(config_to_json(c6).has("noise_sampling"));
    c6.noise_sampling = NoiseSampling::kSparse;
    EXPECT_NE(config_hash(c6), config_hash(cfg));
    // The library default is sparse, so a default config writes the field.
    EXPECT_EQ(config_to_json(ExperimentConfig{})["noise_sampling"].as_str(),
              "sparse");
}

TEST(Serialize, MetricsRoundTripIsBitExact)
{
    Metrics m;
    m.shots = 1234;
    m.rounds_per_shot = 56;
    m.fn_total = 0.1 + 0.2;  // classic non-representable sum
    m.fp_total = 1.0 / 3.0;
    m.tp_total = 6.02214076e23;
    m.lrc_data_total = 1e-320;  // subnormal
    m.lrc_check_total = -0.0;
    m.dlp_series = {0.0, 0.1, 0.30000000000000004, 2.5e-17};
    m.dlp_total = 3.14159265358979312;
    m.check_leak_total = 0.7071067811865476;
    m.logical_errors = 9;
    m.decoded_shots = 1000;

    const Metrics back =
        metrics_from_json(Json::parse(metrics_to_json(m).dump(2)));
    EXPECT_EQ(back.shots, m.shots);
    EXPECT_EQ(back.rounds_per_shot, m.rounds_per_shot);
    EXPECT_EQ(bits_of(back.fn_total), bits_of(m.fn_total));
    EXPECT_EQ(bits_of(back.fp_total), bits_of(m.fp_total));
    EXPECT_EQ(bits_of(back.tp_total), bits_of(m.tp_total));
    EXPECT_EQ(bits_of(back.lrc_data_total), bits_of(m.lrc_data_total));
    EXPECT_EQ(bits_of(back.lrc_check_total), bits_of(m.lrc_check_total));
    EXPECT_EQ(bits_of(back.dlp_total), bits_of(m.dlp_total));
    EXPECT_EQ(bits_of(back.check_leak_total), bits_of(m.check_leak_total));
    EXPECT_EQ(back.logical_errors, m.logical_errors);
    EXPECT_EQ(back.decoded_shots, m.decoded_shots);
    ASSERT_EQ(back.dlp_series.size(), m.dlp_series.size());
    for (size_t i = 0; i < m.dlp_series.size(); ++i)
        EXPECT_EQ(bits_of(back.dlp_series[i]), bits_of(m.dlp_series[i]));
}

TEST(Serialize, VersionIsChecked)
{
    Json j = metrics_to_json(Metrics{});
    j.set("gld_version", Json::integer(999));
    EXPECT_THROW(metrics_from_json(j), std::runtime_error);
    j.set("gld_version", Json::integer(0));
    EXPECT_THROW(metrics_from_json(j), std::runtime_error);
}

TEST(IoFiles, AtomicWriteReadBack)
{
    const std::string dir = ::testing::TempDir() + "gld_io_test";
    make_dirs(dir + "/nested/deeper");
    const std::string path = dir + "/nested/deeper/x.json";
    std::remove(path.c_str());  // TempDir persists across test runs
    EXPECT_FALSE(file_exists(path));
    write_file_atomic(path, "{\"k\":1}\n");
    EXPECT_TRUE(file_exists(path));
    EXPECT_EQ(read_file(path), "{\"k\":1}\n");
    write_file_atomic(path, "2");  // overwrite is atomic too
    EXPECT_EQ(read_file(path), "2");
    EXPECT_FALSE(file_exists(path + ".tmp"));
    EXPECT_THROW(read_file(dir + "/absent"), std::runtime_error);
}

}  // namespace
}  // namespace io
}  // namespace gld
