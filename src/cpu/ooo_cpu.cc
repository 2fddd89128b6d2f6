#include "cpu/ooo_cpu.hh"

#include <algorithm>

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace rarpred {

OooCpu::OooCpu(const CpuConfig &config, const CloakTimingConfig &cloak)
    : config_(config), cloakConfig_(cloak),
      engine_(cloak.enabled
                  ? std::make_unique<CloakingEngine>(cloak.engine)
                  : nullptr),
      memory_(config.memory),
      branchPredictor_(config.branchPredictorEntries,
                       config.branchHistoryBits),
      ras_(config.rasDepth), fetchBw_(config.fetchWidth),
      issueBw_(config.issueWidth), lsqBw_(config.lsqPorts),
      commitBw_(config.commitWidth), srt_({0, 0})
{
    // All per-instruction dynamic state comes out of the arena, once.
    // The rings hold one element beyond their logical bound because
    // each push happens before the corresponding pop.
    commitRing_.init(arena_, (size_t)config.windowSize + 1);
    storeQueue_.init(arena_, (size_t)config.lsqSize + 1);
    valueTime_ = arena_.allocateArray<uint64_t>(kValueRing);
    valueSeq_ = arena_.allocateArray<uint64_t>(kValueRing);
    commitTime_ = arena_.allocateArray<uint64_t>(kValueRing);
    commitSeq_ = arena_.allocateArray<uint64_t>(kValueRing);
    std::fill_n(valueSeq_, kValueRing, ~0ull);
    std::fill_n(commitSeq_, kValueRing, ~0ull);
}

OooCpu::~OooCpu() = default;

uint64_t
OooCpu::valueTimeOf(uint64_t seq) const
{
    const size_t slot = seq & (kValueRing - 1);
    return valueSeq_[slot] == seq ? valueTime_[slot] : 0;
}

void
OooCpu::recordValueTime(uint64_t seq, uint64_t cycle)
{
    const size_t slot = seq & (kValueRing - 1);
    valueSeq_[slot] = seq;
    valueTime_[slot] = cycle;
}

uint64_t
OooCpu::commitTimeOf(uint64_t seq) const
{
    const size_t slot = seq & (kValueRing - 1);
    return commitSeq_[slot] == seq ? commitTime_[slot] : 0;
}

void
OooCpu::recordCommitTime(uint64_t seq, uint64_t cycle)
{
    const size_t slot = seq & (kValueRing - 1);
    commitSeq_[slot] = seq;
    commitTime_[slot] = cycle;
}

uint64_t
OooCpu::speculativeValueTime(const LoadOutcome &outcome,
                             uint64_t dispatch)
{
    const uint64_t earliest =
        dispatch + cloakConfig_.predictionLatency;
    // Inspect the SRT and the SF in parallel (Section 5.6.1). An SRT
    // entry whose producer has not committed by this consumer's
    // decode means the value flows directly from the producer
    // (bypassing); otherwise it sits, already produced, in the SF.
    uint64_t value_at = earliest;
    if (auto seq = srt_.lookup(outcome.synonym)) {
        if (commitTimeOf(*seq) > dispatch)
            value_at = std::max(earliest, valueTimeOf(*seq));
    }
    // Without bypassing, the cloaked load still gets the value at
    // value_at but needs a cycle to propagate it to its consumers
    // (the LOAD RY -> USE RZ hop of Figure 1(b)).
    if (!cloakConfig_.bypassing)
        value_at += 1;
    return value_at;
}

uint64_t
OooCpu::handleFetch(const DynInst &di)
{
    uint64_t request = std::max(lastFetch_, fetchRedirect_);
    uint64_t fetch = fetchBw_.allocate(request);
    const uint64_t block =
        di.pc >> floorLog2(config_.memory.l1i.blockBytes);
    if (block != lastFetchBlock_) {
        // The L1I hit latency is part of the pipelined front end;
        // only the extra miss latency stalls fetch.
        const unsigned lat = memory_.ifetch(di.pc, fetch);
        if (lat > memory_.l1i().hitLatency())
            fetch += lat - memory_.l1i().hitLatency();
        lastFetchBlock_ = block;
    }
    lastFetch_ = fetch;
    return fetch;
}

void
OooCpu::handleControl(const DynInst &di, uint64_t resolve_cycle)
{
    bool mispredicted = false;
    switch (di.op) {
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
        mispredicted = !branchPredictor_.predictAndUpdate(di.pc, di.taken);
        break;
      case Opcode::Call:
        ras_.push(di.pc + kInstBytes);
        break;
      case Opcode::Ret:
        mispredicted = ras_.pop() != di.nextPc;
        break;
      case Opcode::Jump:
        break; // direct target, predicted perfectly
      default:
        break;
    }
    if (mispredicted) {
        ++stats_.branchMispredicts;
        fetchRedirect_ = std::max(
            fetchRedirect_, resolve_cycle + config_.mispredictRedirect);
    }
    if (di.taken) {
        if (config_.fetchBreakOnTaken)
            ++lastFetch_; // the taken transfer ends the fetch group
        lastFetchBlock_ = ~0ull; // next fetch re-reads the I-cache
    }
}

void
OooCpu::pruneBandwidth()
{
    if (++pruneCounter_ % 65536 != 0)
        return;
    const uint64_t floor =
        commitRing_.empty() ? 0
                            : (commitRing_.front() > 4096
                                   ? commitRing_.front() - 4096
                                   : 0);
    fetchBw_.prune(floor);
    issueBw_.prune(floor);
    lsqBw_.prune(floor);
    commitBw_.prune(floor);
}

void
OooCpu::onBatch(const DynInst *batch, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        onInst(batch[i]);
}

void
OooCpu::onInst(const DynInst &di)
{
    ++stats_.instructions;
    pruneBandwidth();

    auto spec_of = [&](RegId r) -> uint64_t {
        return (r == reg::kNone || r == reg::kZero) ? 0 : specReady_[r];
    };
    auto arch_of = [&](RegId r) -> uint64_t {
        return (r == reg::kNone || r == reg::kZero) ? 0 : archReady_[r];
    };
    auto write_reg = [&](RegId r, uint64_t spec, uint64_t arch) {
        if (r == reg::kNone || r == reg::kZero)
            return;
        specReady_[r] = spec;
        archReady_[r] = arch;
    };

    // ---- Fetch and dispatch ----
    const uint64_t fetch = handleFetch(di);
    uint64_t dispatch = fetch + config_.frontEndDepth;
    if (commitRing_.size() >= config_.windowSize)
        dispatch = std::max(dispatch,
                            commitRing_[commitRing_.size() -
                                        config_.windowSize] + 1);

    // ---- Cloaking/bypassing prediction (functional + outcome) ----
    LoadOutcome outcome;
    if (engine_)
        outcome = engine_->processInst(di);

    const unsigned rd = config_.regReadLatency;
    uint64_t arch_complete = dispatch; // default for no-result insts

    if (di.isLoad()) {
        ++stats_.loads;
        const uint64_t addr_ready =
            std::max(dispatch, spec_of(di.src1)) + rd;
        uint64_t earliest = addr_ready + config_.lsqMinDelay;
        switch (config_.memDep) {
          case MemDepPolicy::Naive:
            break;
          case MemDepPolicy::Conservative:
            // Wait for every preceding store address.
            earliest = std::max(earliest, storeAddrReadyMax_ + 1);
            break;
          case MemDepPolicy::StoreSets:
            // Wait only for the last fetched store of this load's
            // store set, if it is still in flight.
            if (auto wait_seq = storeSets_.onLoadDispatch(di.pc)) {
                if (const StoreRecord *s = findStoreBySeq(*wait_seq))
                    earliest = std::max(earliest, s->addrReady + 1);
            }
            break;
        }
        const uint64_t sched = lsqBw_.allocate(earliest);
        const LoadTiming complete = loadCompleteCycle(di, sched);
        // The load's value is architecturally verified when its own
        // access completes (with verified forwarded data) and its
        // (possibly speculative) address operand is verified.
        arch_complete = std::max(complete.arch, arch_of(di.src1));

        uint64_t spec_ready = complete.spec;
        uint64_t arch_ready = arch_complete;
        if (outcome.used) {
            ++stats_.valueSpecUsed;
            const uint64_t value_at =
                speculativeValueTime(outcome, dispatch);
            const uint64_t verify = arch_complete;
            if (outcome.correct) {
                ++stats_.valueSpecCorrect;
                // Correct speculation: dependents may use the
                // bypassed value as soon as it exists.
                if (value_at < spec_ready) {
                    stats_.specCyclesSaved += spec_ready - value_at;
                    spec_ready = value_at;
                }
                arch_ready = verify;
            } else {
                ++stats_.valueSpecWrong;
                switch (cloakConfig_.recovery) {
                  case RecoveryModel::Selective:
                    // Dependents that read the wrong value re-execute
                    // once the verified value arrives.
                    spec_ready = verify + 1;
                    arch_ready = verify + 1;
                    break;
                  case RecoveryModel::Squash:
                    // Everything younger than the misspeculation is
                    // re-fetched from scratch.
                    ++stats_.squashes;
                    fetchRedirect_ = std::max(
                        fetchRedirect_,
                        verify + config_.mispredictRedirect);
                    spec_ready = verify;
                    arch_ready = verify;
                    break;
                  case RecoveryModel::Oracle:
                    // The oracle never used the wrong value.
                    --stats_.valueSpecUsed;
                    ++stats_.valueSpecCorrect;
                    --stats_.valueSpecWrong;
                    spec_ready = verify;
                    arch_ready = verify;
                    break;
                }
            }
        }
        write_reg(di.dst, spec_ready, arch_ready);
        // The value a RAR consumer bypasses from exists once the
        // producer load's own access has returned it.
        recordValueTime(di.seq, complete.spec);
    } else if (di.isStore()) {
        ++stats_.stores;
        const uint64_t addr_ready =
            std::max(dispatch, spec_of(di.src1)) + rd;
        uint64_t earliest = addr_ready + config_.lsqMinDelay;
        if (config_.memDep == MemDepPolicy::StoreSets) {
            // Stores of one set issue in order.
            if (auto prev_seq = storeSets_.onStoreDispatch(di.pc,
                                                           di.seq)) {
                if (const StoreRecord *s = findStoreBySeq(*prev_seq))
                    earliest = std::max(earliest, s->addrReady + 1);
            }
        }
        const uint64_t sched = lsqBw_.allocate(earliest);
        // Speculative data propagates through the store queue and the
        // synonym file as soon as the producing instruction computes
        // it; verification follows the register chain.
        const uint64_t data_spec =
            std::max(dispatch, spec_of(di.src2)) + rd;
        const uint64_t data_arch =
            std::max(dispatch, arch_of(di.src2)) + rd;
        storeByAddr_.findOrInsert(di.eaddr, 0) =
            storesPopped_ + storeQueue_.size();
        storeQueue_.push_back(
            {di.seq, di.pc, di.eaddr, sched, data_spec, data_arch});
        if (storeQueue_.size() > config_.lsqSize) {
            const StoreRecord &old = storeQueue_.front();
            if (config_.memDep == MemDepPolicy::StoreSets)
                storeSets_.onStoreRetire(old.pc, old.seq);
            if (const uint64_t *ord = storeByAddr_.find(old.addr);
                ord && *ord == storesPopped_)
                storeByAddr_.erase(old.addr);
            ++storesPopped_;
            storeQueue_.pop_front();
        }
        storeAddrReadyMax_ = std::max(storeAddrReadyMax_, sched);
        arch_complete = std::max(sched, data_arch);
        // The store's value is what bypassing links consumers to.
        recordValueTime(di.seq, data_spec);
    } else if (di.isControl()) {
        // Branches execute as soon as (possibly speculative) operands
        // allow, but resolution — and hence misprediction repair — is
        // deferred until the inputs are verified (Section 5.6.1).
        const uint64_t spec_src =
            std::max(spec_of(di.src1), spec_of(di.src2));
        const uint64_t arch_src =
            std::max(arch_of(di.src1), arch_of(di.src2));
        const uint64_t start =
            issueBw_.allocate(std::max(dispatch, spec_src) + rd);
        const uint64_t resolve = std::max(start + 1, arch_src);
        arch_complete = resolve;
        handleControl(di, resolve);
        if (di.op == Opcode::Call)
            write_reg(di.dst, resolve, resolve);
        recordValueTime(di.seq, resolve);
    } else {
        // ALU / FP / moves.
        const uint64_t spec_src =
            std::max(spec_of(di.src1), spec_of(di.src2));
        const uint64_t arch_src =
            std::max(arch_of(di.src1), arch_of(di.src2));
        const unsigned lat = di.latency();
        const uint64_t start =
            issueBw_.allocate(std::max(dispatch, spec_src) + rd);
        const uint64_t spec_complete = start + lat;
        // Speculation in a register chain resolves as soon as its
        // inputs resolve (Section 5.6.1): no re-execution on correct
        // speculation.
        arch_complete = std::max(spec_complete, arch_src);
        write_reg(di.dst, spec_complete, arch_complete);
        recordValueTime(di.seq, spec_complete);
    }

    // A predicted producer renames its synonym in the SRT at decode,
    // after any consumer role of the same instruction resolved above
    // (a RAR source must not link to itself).
    if (outcome.predictedProducer)
        srt_.rename(outcome.synonym, di.seq);

    // ---- In-order commit ----
    const uint64_t commit =
        commitBw_.allocate(std::max(arch_complete + 1, lastCommit_));
    lastCommit_ = commit;
    commitRing_.push_back(commit);
    if (commitRing_.size() > config_.windowSize)
        commitRing_.pop_front();
    if (di.isStore())
        (void)memory_.store(di.eaddr, commit);
    recordCommitTime(di.seq, commit);
    stats_.cycles = std::max(stats_.cycles, commit);
}

OooCpu::LoadTiming
OooCpu::loadCompleteCycle(const DynInst &di, uint64_t sched)
{
    // Find the youngest prior store to the same word via the addr
    // index; its ordinal locates the record without scanning.
    const StoreRecord *conflict = nullptr;
    if (const uint64_t *ord = storeByAddr_.find(di.eaddr))
        conflict = &storeQueue_[*ord - storesPopped_];

    if (conflict) {
        if (conflict->addrReady <= sched) {
            // Known conflict: wait and forward from the store queue.
            // Speculatively-computed store data forwards immediately;
            // the load verifies once the data does.
            return {std::max(sched, conflict->dataReadySpec) + 1,
                    std::max(sched, conflict->dataReadyArch) + 1};
        }
        // Speculation read memory under an unknown store address: a
        // memory-order violation, repaired by re-executing the load
        // once the store's address and data are known. Store sets
        // learn the (store, load) pair so the next encounter waits.
        ++stats_.memOrderViolations;
        if (config_.memDep == MemDepPolicy::StoreSets)
            storeSets_.onViolation(di.pc, conflict->pc);
        const unsigned mem_lat = memory_.load(di.eaddr, sched);
        const uint64_t wrong = sched + mem_lat;
        const uint64_t repair_spec =
            std::max(conflict->addrReady, conflict->dataReadySpec) +
            config_.memOrderRedoPenalty;
        const uint64_t repair_arch =
            std::max(conflict->addrReady, conflict->dataReadyArch) +
            config_.memOrderRedoPenalty;
        return {std::max(wrong, repair_spec),
                std::max(wrong, repair_arch)};
    }

    const unsigned mem_lat = memory_.load(di.eaddr, sched);
    return {sched + mem_lat, sched + mem_lat};
}

const OooCpu::StoreRecord *
OooCpu::findStoreBySeq(uint64_t seq) const
{
    for (size_t i = storeQueue_.size(); i-- > 0;)
        if (storeQueue_[i].seq == seq)
            return &storeQueue_[i];
    return nullptr;
}

OooCpu::HotPathLoads
OooCpu::hotPathLoads() const
{
    return {srt_.probeStats(),    fetchBw_.probeStats(),
            issueBw_.probeStats(), lsqBw_.probeStats(),
            commitBw_.probeStats(), arena_.bytesReserved()};
}

CpuStats
OooCpu::stats() const
{
    return stats_;
}

} // namespace rarpred
