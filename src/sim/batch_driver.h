#ifndef GLD_SIM_BATCH_DRIVER_H_
#define GLD_SIM_BATCH_DRIVER_H_

#include <cstdint>
#include <vector>

#include "circuit/round_circuit.h"
#include "codes/css_code.h"
#include "noise/noise_model.h"
#include "sim/leakage_driver.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace gld {

/**
 * A Bernoulli rate preprocessed for the word-wide sites: the p <= 0 /
 * p >= 1 short-circuits mirror Rng::bernoulli (which consumes NO draw in
 * either case).
 *
 * The sparse (event-driven) sampler adds two kinds of state:
 *  - `inv_log1mp` = 1 / log(1-p), precomputed so a geometric skip is one
 *    log() per EVENT instead of one uniform per (site x lane) position.
 *  - `skip` / `skip_valid`: the persistent geometric countdown carried
 *    across every position drawn at this rate.  Bernoulli positions are
 *    iid, so one countdown per rate over the concatenated (site x lane)
 *    position stream is statistically exact.  Only the sparse sampler
 *    touches these fields; lockstep ignores them.
 *
 * The driver keeps five rates.  The round's p, pl() and mlr_err() rates
 * are planned: at round start the countdown is walked over the whole
 * round's (site x active lane) positions; the leftover countdown carries
 * into the next round (and, for p, into the final readout).  A planned
 * event lands in one of two places (see BatchLeakageDriver):
 *  - an event WORD, when its site never draws a payload: every MLR site,
 *    and the p site of every reset (the init error) and of every
 *    measurement (the readout error).  Each such site owns one lane word
 *    the plan ORs its events into and the site consumes with one masked
 *    word op;
 *  - the event LIST otherwise (the depolarizing p sites and every pl
 *    site), so a quiet site is one compare of its id with the next
 *    listed event.
 * The LRC gadgets' lrc_depol() and lrc_leak() rates and the final
 * readout consume their countdown site by site (an inline quiet path —
 * subtract the site's popcount, fire nothing — and an out-of-line
 * event path that draws); a round whose gadget positions both
 * countdowns outlast skips the per-site draws altogether.
 */
struct LaneRate {
    double p = 0.0;
    bool never = true;
    bool always = false;
    double inv_log1mp = 0.0;  ///< 1/log(1-p) (sparse geometric skips)
    uint64_t skip = 0;        ///< positions left before the next event
    bool skip_valid = false;  ///< skip holds a live countdown

    LaneRate() = default;
    explicit LaneRate(double pp) : p(pp)
    {
        never = p <= 0.0;
        always = p >= 1.0;
        if (!never && !always)
            inv_log1mp = 1.0 / __builtin_log1p(-p);
    }
};

/**
 * The word-wide quantum-state interface a batch backend provides to the
 * BatchLeakageDriver: every primitive of StatePrimitives, widened to act
 * on up to 64 independent shots at once, selected by a lane word.  A
 * driver built without one runs its own packed X/Z Pauli frame inline
 * (batch_frame); this virtual path serves the backends with real
 * per-lane state (batch_tableau) and test doubles.
 *
 * Lane/mask contract:
 *  - Every mask argument and every result is one LaneMask word: bit l
 *    belongs to lane (shot) l.  Lanes are independent shots: a masked op
 *    must not couple lanes, and bits outside the mask must be left
 *    untouched.
 *  - Masked ops may receive a mask with no bits set only via apply_pauli
 *    component words (xs or zs may be zero); callers skip fully-empty
 *    calls but are not required to.
 *  - measure_z returns a bit for every lane; the driver masks out the
 *    lanes it does not want (leaked lanes' bits are discarded).  An exact
 *    batch backend may collapse all lanes here — discarded lanes'
 *    outcomes are never observed, so this is safe (batch_tableau does
 *    exactly this).
 *  - No primitive may touch the driver's RNG (same determinism contract
 *    as the scalar StatePrimitives).
 */
class BatchStatePrimitives {
  public:
    virtual ~BatchStatePrimitives() = default;

    /** Re-initializes all lanes to |0...0> for a new shot batch. */
    virtual void reset_state() = 0;

    /**
     * Applies X to qubit q in the lanes of `xs` and Z in the lanes of
     * `zs` (both bits set in a lane = Y, as in the scalar encoding).
     */
    virtual void apply_pauli(int q, LaneMask xs, LaneMask zs) = 0;

    /** The coherent CNOT action in the lanes of `lanes`. */
    virtual void coherent_cnot(int control, int target, LaneMask lanes) = 0;

    /** The coherent Hadamard action in the lanes of `lanes`. */
    virtual void hadamard(int q, LaneMask lanes) = 0;

    /** Noiseless |0> reset of qubit q in the lanes of `lanes`. */
    virtual void reset_z(int q, LaneMask lanes) = 0;

    /**
     * Z-basis readout of qubit q: bit l is lane l's outcome flip vs the
     * noiseless reference.  Lanes the caller knows to be leaked are
     * masked off by the driver after the fact.
     */
    virtual LaneMask measure_z(int q) = 0;

    /** Fired when qubit q's leak flag rises 0 -> 1 in the lanes given. */
    virtual void park_leaked(int q, LaneMask lanes) = 0;
};

/**
 * The batch execution path of the shared LeakageDriver: the SAME classical
 * leakage semantics (sim/leakage_driver.{h,cc} is the reference
 * implementation), executed for up to 64 shots — one lane word — in
 * lockstep over a BatchStatePrimitives provider.
 *
 * Determinism contract — two Bernoulli draw contracts (NoiseSampling):
 *  - kSparse, the production engine and the library default: one event
 *    stream per shot batch, master.split(shot_base), draws geometric
 *    skips over (site x lane) positions and touches only the firing
 *    lanes.  Each round first runs the LRC gadgets: each scheduled qubit
 *    is one site over its requesting lanes (gadget depolarization, then
 *    gadget leakage, at the lrc_depol() and lrc_leak() countdowns), data
 *    qubits ascending, then checks ascending.  Then the round's p, pl()
 *    and mlr_err() events are planned up front, in that order, over a
 *    fixed position space: the rate's sites (numbered at construction
 *    in execution order — p: data qubit q is site q, op i of the
 *    RoundCircuit is site n_data+i; pl: data qubit q, then a pair per
 *    CNOT; MLR: one per measurement) times the active lanes.  Events at
 *    the payload-free sites (every MLR site; the p site of every reset
 *    and every measurement) are ORed into that site's event word; the
 *    rest are listed in position order.  A masked site (the reset init
 *    error, the readout error) discards the events that fall on its
 *    masked-out (leaked) lanes — exact, since every position is an iid
 *    draw.  Payload draws (Pauli choice, transport, readout coin) come
 *    from the same stream as the round executes, in ascending lane order
 *    per site; where an event lands changes no draw and no draw order.
 *    Events depend only on (seed, stream, block), so results are
 *    bit-identical across thread counts and shard splits, and agree with
 *    the scalar backends statistically (the `gld_campaign verify`
 *    referee).
 *  - The sparse round on the inline frame (batch_frame) runs the ops in
 *    typed runs (resets, H, CNOT steps, H, measurements — the
 *    RoundCircuit's order): a quiet op is its clean-lane word op, and an
 *    op takes the out-of-line handler only when it holds a listed (p or
 *    pl) event or, for a CNOT or a measurement, an active lane of its
 *    qubits is leaked.  Under lockstep, and on a backend with its own
 *    primitives (batch_tableau), every op takes the handler; lockstep
 *    fills a payload-free site's event word with its per-lane draw at
 *    the site, so both modes consume them the same way.
 *  - kLockstep, the scalar-aligned reference: lane l owns a plain Rng,
 *    master.split(shot_base + l) — exactly the stream the SCALAR driver
 *    uses for its (shot_base + l)-th shot — and every draw of the lane is
 *    a call on it (bernoulli, uniform_int, bit) in the scalar driver's
 *    within-shot order.  Each lane's draw sequence is therefore
 *    bit-identical to the scalar backend's corresponding shot, no matter
 *    what the other lanes do: lane l of the j-th batch of a block
 *    replays scalar shot 64*j+l of the block draw for draw.
 *  - In both modes control flow is computed per lane into masks; state
 *    mutation happens through word-wide masked primitives, but never in
 *    a way the scalar driver could distinguish.
 *
 * Any semantic change to the scalar LeakageDriver MUST be mirrored here;
 * the cross-backend gate (frame vs batch_frame Metrics must be
 * bit-identical at every scheduler block size, tier-1) is what catches a
 * fork.
 */
class BatchLeakageDriver final {
  public:
    /**
     * @param master the shot-master stream; lane l of a batch draws from
     *        master.split(shots of the earlier batches + l).  Pass the
     *        SAME master the scalar backend would construct from the seed
     *        and the lane streams line up shot for shot.
     * @param state the backend's primitives, or nullptr for the driver's
     *        own inline Pauli frame (the batch_frame backend).
     * @param noise_sampling lockstep (per-lane Rng streams, the
     *        scalar-aligned reference) or sparse (one event stream for the
     *        whole batch, geometric skips over the (site x lane) position
     *        space — its own RNG contract, qualified statistically by
     *        verify).
     */
    BatchLeakageDriver(const CssCode& code, const RoundCircuit& rc,
                       const NoiseParams& np, Rng master,
                       BatchStatePrimitives* state,
                       NoiseSampling noise_sampling =
                           NoiseSampling::kLockstep);

    // Non-copyable for the same reason as LeakageDriver: the driver holds
    // the backend's primitives pointer.
    BatchLeakageDriver(const BatchLeakageDriver&) = delete;
    BatchLeakageDriver& operator=(const BatchLeakageDriver&) = delete;

    /**
     * Starts a new batch of `n_lanes` shots (1 <= n_lanes <= 64): clears
     * flags/history/state, actives lanes [0, n_lanes) and reseeds lane l
     * with master.split(shots_started + l).  Lanes >= n_lanes are
     * padding: masked off everywhere and never drawing.
     */
    void reset_shot_batch(int n_lanes);

    /**
     * Restores the driver to its just-constructed state under a NEW
     * master stream: flags/history/scratch cleared, the shot counter
     * rewound to 0, every lane reseeded with master.split(0) and lane 0
     * active (the post-construction probing state), and the backend
     * state re-initialized.  The simulator-reuse path resets a cached
     * driver per scheduler block with the block's own master, making
     * reuse bit-identical to fresh construction.
     */
    void reset_for_block(Rng master);

    /** Lanes currently active (padding excluded). */
    LaneMask active() const { return active_; }
    int n_lanes() const { return n_lanes_; }

    /** Raises the leak flag of qubit q in `lanes`. */
    void set_leak(int q, LaneMask lanes);
    /** Raises check c's ancilla leak flag in `lanes`. */
    void set_check_leak(int c, LaneMask lanes)
    {
        set_leak(code_->ancilla_of(c), lanes);
    }
    /**
     * Applies X to qubit q in the lanes of `xs` and Z in the lanes of
     * `zs` (the state's apply_pauli; injection for the scalar adapters).
     */
    void apply_pauli(int q, LaneMask xs, LaneMask zs);

    /** Clears qubit q's leak flag in `lanes`. */
    void clear_leak(int q, LaneMask lanes)
    {
        leaked_[static_cast<size_t>(q)] &= ~lanes;
    }

    /** Leak-flag word of qubit q (bit per lane). */
    LaneMask leaked(int q) const { return leaked_[static_cast<size_t>(q)]; }
    /** Leak-flag words of every qubit, data first then ancillas. */
    const LaneMask* leaked_words() const { return leaked_.data(); }

    // --- Per-lane ground truth (the runner's accounting view). ---
    bool data_leaked(int lane, int q) const
    {
        return (leaked(q) >> lane) & 1u;
    }
    bool check_leaked(int lane, int c) const
    {
        return data_leaked(lane, code_->ancilla_of(c));
    }
    int n_data_leaked(int lane) const;
    int n_check_leaked(int lane) const;

    /**
     * A scalar LeakageOracle view of one lane — what oracle policies and
     * the runner's speculation accounting read for that lane's shot.
     */
    const LeakageOracle& lane_oracle(int lane) const
    {
        return lane_oracles_[static_cast<size_t>(lane)];
    }

    /**
     * Runs the LRC gadgets of `lrc` word-wide — data qubits ascending,
     * then checks ascending, each on its requesting lanes clipped to the
     * active ones — then one noisy syndrome-extraction round for every
     * active lane in lockstep.  The round is left in the word views
     * below.  `lrc` must hold a word per data qubit and per check (the
     * BatchSimulator entry checks this).
     */
    void run_round_batch(const LrcWords& lrc);

    // The last round's words, one per check, live views like
    // leaked_words(); zero on inactive lanes.
    const LaneMask* meas_flip_words() const { return meas_flip_.data(); }
    const LaneMask* detector_words() const { return detector_.data(); }
    const LaneMask* mlr_words() const { return mlr_flag_.data(); }

    /**
     * Transversal Z-basis readout of all data qubits for every active
     * lane; out is resized to n_lanes() per-lane flip vectors.
     */
    void final_data_measure_batch(std::vector<std::vector<uint8_t>>* out);

    /** The LRC partner ancilla (check index) used for data qubit q. */
    int lrc_partner(int q) const
    {
        return lrc_partner_[static_cast<size_t>(q)];
    }

    const NoiseParams& noise() const { return np_; }

    /** The Bernoulli draw contract this driver runs under. */
    NoiseSampling sampling() const
    {
        return sparse_ ? NoiseSampling::kSparse : NoiseSampling::kLockstep;
    }

  private:
    /** LeakageOracle adapter for one lane of the batch driver. */
    class LaneOracle final : public LeakageOracle {
      public:
        void bind(const BatchLeakageDriver* d, int lane)
        {
            d_ = d;
            lane_ = lane;
        }
        bool data_leaked(int q) const override
        {
            return d_->data_leaked(lane_, q);
        }
        bool check_leaked(int c) const override
        {
            return d_->check_leaked(lane_, c);
        }
        int n_data_leaked() const override
        {
            return d_->n_data_leaked(lane_);
        }
        int n_check_leaked() const override
        {
            return d_->n_check_leaked(lane_);
        }

      private:
        const BatchLeakageDriver* d_ = nullptr;
        int lane_ = 0;
    };

    // The hot per-op helpers inline into the round.  The `site`
    // arguments are the sparse plan's site ids (see the class comment);
    // lockstep ignores them.
    void depolarize1(int q, uint32_t site);
    void depolarize2(int q0, int q1, uint32_t site);
    void leak_maybe(int q, uint32_t site);
    void cnot(int control, int target, uint32_t p_site, uint32_t pl_site);
    /**
     * Step 1 of a round: every scheduled LRC gadget, word-wide.  When
     * both gadget countdowns outlast the round's gadget positions (the
     * clipped request popcounts), the counts are subtracted up front and
     * only the flag swaps and resets run.
     */
    void lrc_gadgets(const LrcWords& lrc);
    /**
     * One op of the round circuit as the full site (the slow path of the
     * typed runs, and every op under lockstep or backend primitives):
     * leak branches, listed events with their payloads, and the event
     * word of a payload-free site (drawn here under lockstep), which it
     * consumes and zeroes.
     */
    __attribute__((noinline)) void op_handler(const Op& op, uint32_t p_site,
                                              uint32_t pl_site,
                                              uint32_t mlr_site);
    /** The round circuit as typed op runs (step 3 of a round). */
    void run_ops(bool inline_frame);

    // The quantum state: the driver's own packed X/Z Pauli frame when it
    // was built without primitives (state_ == nullptr), plain word ops
    // inlined into the round; otherwise the backend's virtual primitives.
    // park_leaked is a no-op on the frame: a leaked lane's frame freezes
    // because the driver routes no coherent gates at it.
    void state_pauli(int q, LaneMask xs, LaneMask zs);
    void state_cnot(int control, int target, LaneMask lanes);
    void state_hadamard(int q, LaneMask lanes);
    void state_reset_z(int q, LaneMask lanes);
    LaneMask state_measure_z(int q);
    void reset_state();
    /** Qubit q's frame: its X word, then its Z word. */
    LaneMask* frame(int q) { return &frame_[2 * static_cast<size_t>(q)]; }

    /**
     * One word-wide Bernoulli site: returns the fired lanes of `mask`.
     * Lockstep calls Rng::bernoulli once per lane of `mask` on that
     * lane's own stream (lanes outside `mask` do not advance), so it
     * keeps the no-draw p<=0 / p>=1 short-circuits too.  Sparse resolves
     * a quiet site inline — a zero rate, or a live countdown of at least
     * popcount(mask), which is decremented — and calls the out-of-line
     * sparse_bernoulli_mask for everything else.  Under sparse the
     * round's p/pl/MLR sites are planned instead (round_site and the
     * event words); this countdown path serves the LRC-gadget sites and
     * the final readout.
     */
    LaneMask bernoulli_mask(LaneRate& rate, LaneMask mask);

    /**
     * The event path of a sparse Bernoulli site (NoiseSampling::kSparse):
     * instead of advancing every lane's stream, walk `rate`'s persistent
     * geometric countdown over the popcount(mask) candidate positions of
     * this site (ascending lane order) and return only the firing lanes.
     * A site where the countdown does not expire costs ZERO draws; each
     * event costs one uniform (the next skip).  The countdown carries
     * across sites, rounds and shots of one batch — events depend only
     * on (seed, stream, block), so results stay bit-identical across
     * thread counts and shard splits.  Out of line: bernoulli_mask has
     * already handled the quiet sites.
     */
    __attribute__((noinline)) LaneMask
    sparse_bernoulli_mask(LaneRate& rate, LaneMask mask);

    /** Next geometric skip (# of non-events before the next event). */
    uint64_t sparse_geometric(const LaneRate& rate);

    /**
     * One planned round rate (sparse): this round's listed events as
     * (site, lane) pairs in position order, closed by a kNoSite
     * sentinel, and a cursor on the next one not yet consumed.
     */
    struct RoundPlan {
        struct Event {
            uint32_t site;
            uint32_t lane;
        };
        std::vector<Event> events;
        const Event* next = nullptr;
    };
    static constexpr uint32_t kNoSite = ~0u;
    /** A site's entry in a plan's slot table: its events are listed. */
    static constexpr uint32_t kListed = ~0u;

    /**
     * Plans the events of `rate` over this round's n_sites x n_lanes()
     * positions (position = site*n_lanes() + lane), continuing the
     * rate's countdown and leaving the remainder in it.  An event whose
     * site has a slot s in `slot` (one entry per site) is ORed into
     * word s of `words`; an event whose slot is kListed goes on the
     * plan's list.  A zero rate draws nothing; p >= 1 plans every
     * position without drawing.
     */
    void plan_round(LaneRate& rate, const std::vector<uint32_t>& slot,
                    LaneMask* words, RoundPlan* plan);

    /** The event word of p site `site` (a reset or measurement). */
    LaneMask& p_event(uint32_t site) { return ev_p_[p_slot_[site]]; }
    /** The event word of MLR site `site`. */
    LaneMask& mlr_event(uint32_t site) { return ev_mlr_[site]; }

    /**
     * A round's listed p/pl site: lockstep is bernoulli_mask; sparse
     * fires the listed events whose site is `site`, keeping the lanes of
     * `mask` (an event on a masked-out lane is discarded).
     */
    LaneMask round_site(LaneRate& rate, RoundPlan& plan, uint32_t site,
                        LaneMask mask);

    // Payload draws (Pauli choice, transport direction, readout coin...)
    // after a fire decision: lockstep takes them from the firing lane's
    // own stream (scalar-aligned), sparse from the one event stream.
    Rng& payload_rng(int lane)
    {
        return sparse_ ? event_rng_ : lane_rng_[static_cast<size_t>(lane)];
    }

    /** Re-arms the sparse event stream + countdowns at a reset point. */
    void sparse_reset(uint64_t stream_id)
    {
        event_rng_ = master_rng_.split(stream_id);
        rate_p_.skip_valid = false;
        rate_pl_.skip_valid = false;
        rate_mlr_.skip_valid = false;
        rate_lrc_depol_.skip_valid = false;
        rate_lrc_leak_.skip_valid = false;
    }

    /**
     * Readout flips of one measured qubit: the drawn readout errors
     * `err` on the `ok` lanes, a random outcome (one coin per lane,
     * ascending) for the leaked `lk` lanes.
     */
    LaneMask readout(LaneMask measured, LaneMask lk, LaneMask ok,
                     LaneMask err);

    const CssCode* code_;
    const RoundCircuit* rc_;
    NoiseParams np_;
    LaneRate rate_p_;    ///< np.p, preprocessed for word-wide draws
    LaneRate rate_pl_;   ///< np.pl()
    LaneRate rate_mlr_;  ///< np.mlr_err()
    LaneRate rate_lrc_depol_;  ///< np.lrc_depol(), the gadget Pauli site
    LaneRate rate_lrc_leak_;   ///< np.lrc_leak(), the gadget leak site
    // Sparse round plans, and each planned rate's slot table (one entry
    // per site, fixed by the circuit; see plan_round).
    RoundPlan plan_p_, plan_pl_, plan_mlr_;
    std::vector<uint32_t> p_slot_, pl_slot_, mlr_slot_;
    // Event words of the payload-free sites, one word per site: ev_p_
    // holds the resets' and measurements' p sites in site order, ev_mlr_
    // the MLR sites.  Planned (sparse) or drawn (lockstep) each round,
    // consumed and zeroed by their site: all zero between rounds.
    std::vector<LaneMask> ev_p_, ev_mlr_;
    /** The round circuit's maximal runs of one op type, in order. */
    struct OpRun {
        OpType type;
        uint32_t end;  ///< one past the run's last op index
    };
    std::vector<OpRun> runs_;
    /** lrc_gadgets scratch: the requesting qubits of a round. */
    std::vector<int> lrc_req_;
    Rng master_rng_;
    uint64_t shots_started_ = 0;
    bool sparse_ = false;   ///< NoiseSampling::kSparse event-driven draws
    Rng event_rng_;         ///< the sparse mode's one per-batch stream
    /** Lockstep only: lane l's shot stream (64 entries; none in sparse). */
    std::vector<Rng> lane_rng_;

    LaneMask active_ = 0;
    int n_lanes_ = 0;
    bool first_round_ = true;

    std::vector<LaneMask> leaked_;     ///< leak-flag word per qubit
    std::vector<LaneMask> prev_meas_;  ///< previous meas_flip per check
    std::vector<LaneMask> meas_flip_;  ///< last round, word per check
    std::vector<LaneMask> mlr_flag_;   ///< last round, word per check
    std::vector<LaneMask> detector_;   ///< last round, word per check
    std::vector<int> lrc_partner_;
    std::vector<LaneOracle> lane_oracles_;
    BatchStatePrimitives* state_;  ///< nullptr: the inline frame below
    std::vector<LaneMask> frame_;  ///< inline Pauli frame, see frame(q)
};

/**
 * Batch analogue of LeakageDriverSim: a backend derives, hands the driver
 * its BatchStatePrimitives (or none, for the driver's inline Pauli
 * frame), implements name(), and gets the whole Simulator API — scalar
 * calls run the batch driver one lane wide, so the same object serves
 * interface tests and the lockstep scheduler path.
 */
class BatchLeakageDriverSim : public BatchSimulator {
  public:
    int batch_width() const final { return kBatchLanes; }
    void reset_shot_batch(int n_lanes) final
    {
        driver_.reset_shot_batch(n_lanes);
    }
    int n_lanes() const final { return driver_.n_lanes(); }
    void inject_data_leak_lane(int lane, int q) final
    {
        driver_.set_leak(q, 1ull << lane);
    }
    const LeakageOracle& lane_oracle(int lane) const final
    {
        return driver_.lane_oracle(lane);
    }
    const LaneMask* leaked_words() const final
    {
        return driver_.leaked_words();
    }
    const LaneMask* meas_flip_words() const final
    {
        return driver_.meas_flip_words();
    }
    const LaneMask* detector_words() const final
    {
        return driver_.detector_words();
    }
    const LaneMask* mlr_words() const final { return driver_.mlr_words(); }
    void final_data_measure_batch(
        std::vector<std::vector<uint8_t>>* out) final
    {
        driver_.final_data_measure_batch(out);
    }

    /**
     * Default reuse reset for batch backends whose only randomness is
     * the driver's lane streams (batch_frame): fresh construction
     * passes Rng(seed) as the driver master, so resetting the driver
     * with Rng(seed) reproduces it exactly.  batch_tableau overrides to
     * also reseed its per-lane projection streams.
     */
    void reset_for_block(uint64_t seed) override
    {
        driver_.reset_for_block(Rng(seed));
    }

    // --- Scalar Simulator API: lane 0 of a one-lane batch. ---
    void reset_shot() final { driver_.reset_shot_batch(1); }
    void inject_data_leak(int q) final { driver_.set_leak(q, 1); }
    void inject_check_leak(int c) final { driver_.set_check_leak(c, 1); }
    void inject_x(int q) final { driver_.apply_pauli(q, 1, 0); }
    void inject_z(int q) final { driver_.apply_pauli(q, 0, 1); }
    void clear_leak(int q) final { driver_.clear_leak(q, 1); }
    const LeakageOracle& leak_oracle() const final
    {
        return driver_.lane_oracle(0);
    }
    RoundResult run_round(const LrcSchedule& lrcs) final;
    std::vector<uint8_t> final_data_measure() final;

    /** The LRC partner ancilla (check index) used for data qubit q. */
    int lrc_partner(int q) const { return driver_.lrc_partner(q); }

    /** The shared batch driver (tests: drift gate, semantics probes). */
    const BatchLeakageDriver& driver() const { return driver_; }

  protected:
    /** @param master see BatchLeakageDriver — pass the scalar backend's
     *         master (e.g. Rng(seed)) for shot-for-shot lane alignment.
     *  @param state the backend's primitives; nullptr runs the driver's
     *         inline Pauli frame.
     *  @param noise_sampling the driver's Bernoulli draw contract. */
    BatchLeakageDriverSim(const CssCode& code, const RoundCircuit& rc,
                          const NoiseParams& np, Rng master,
                          BatchStatePrimitives* state,
                          NoiseSampling noise_sampling)
        : BatchSimulator(code.n_data(), code.n_checks()),
          driver_(code, rc, np, master, state, noise_sampling)
    {
    }

    void run_round_words(const LrcWords& lrc) final
    {
        driver_.run_round_batch(lrc);
    }

    BatchLeakageDriver driver_;

  private:
    // Scratch for the scalar API adapters (reused across rounds).
    std::vector<LrcSchedule> one_lrcs_{1};
    std::vector<RoundResult> one_round_;
    std::vector<std::vector<uint8_t>> one_flips_;
};

}  // namespace gld

#endif  // GLD_SIM_BATCH_DRIVER_H_
