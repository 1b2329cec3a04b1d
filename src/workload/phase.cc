#include "phase.hh"

#include <cmath>

#include "support/logging.hh"

namespace splab
{

PhaseModel::PhaseModel(const PhaseSpec &spec, u64 seed, u32 phaseIndex,
                       BlockId idBase, Addr pcBase, Addr dataBase)
    : phaseSpec(spec), seed(hashCombine(seed, phaseIndex)),
      index(phaseIndex), idBase(idBase)
{
    SPLAB_ASSERT(phaseSpec.numBlocks > 0, "phase needs >= 1 block");
    SPLAB_ASSERT(phaseSpec.avgBlockLen >= 4 &&
                 phaseSpec.avgBlockLen <= 240,
                 "avgBlockLen out of range: ", phaseSpec.avgBlockLen);
    phaseSpec.mix.normalize();

    KernelConfig kc;
    kc.kind = phaseSpec.kernel;
    kc.base = dataBase;
    kc.workingSet = phaseSpec.workingSetBytes;
    kc.stride = phaseSpec.stride;
    kc.hotFraction = phaseSpec.hotFraction;
    kc.hotProbability = phaseSpec.hotProbability;
    kc.tileBytes = phaseSpec.tileBytes;
    kernel = makeKernel(kc, hashCombine(this->seed, 0xfeedULL));
    // The stack/locals region sits far above the heap segment.
    locality.stackBase = dataBase + (1ULL << 32);
    locality.threshold =
        Rng::chanceThreshold(phaseSpec.localFraction);

    buildBlocks(pcBase);
}

void
PhaseModel::buildBlocks(Addr pcBase)
{
    statics.resize(phaseSpec.numBlocks);
    baseWeight.resize(phaseSpec.numBlocks);
    chunkCdf.resize(phaseSpec.numBlocks);
    takenBias.resize(phaseSpec.numBlocks);

    Rng build(seed, 0xb10cULL);
    Addr pc = pcBase;
    auto cdf = phaseSpec.mix.cdf();

    for (u32 b = 0; b < phaseSpec.numBlocks; ++b) {
        StaticBlock &blk = statics[b];
        blk.id = idBase + b;
        blk.pc = pc;

        // Length varies across blocks so BBVs are weighted unevenly.
        double lenScale = build.uniform(0.6, 1.4);
        blk.instrs = static_cast<u32>(
            static_cast<double>(phaseSpec.avgBlockLen) * lenScale);
        if (blk.instrs < 4)
            blk.instrs = 4;

        // Per-block mix: jitter the phase profile so blocks are
        // distinguishable, then draw integer counts.
        std::array<double, kNumMemClasses> f = {
            phaseSpec.mix.noMem, phaseSpec.mix.memR,
            phaseSpec.mix.memW, phaseSpec.mix.memRW};
        double s = 0.0;
        for (auto &x : f) {
            x *= std::exp(0.25 * build.gaussian());
            s += x;
        }
        u32 assigned = 0;
        for (std::size_t c = 1; c < kNumMemClasses; ++c) {
            blk.mix[c] = static_cast<u32>(
                f[c] / s * static_cast<double>(blk.instrs));
            assigned += blk.mix[c];
        }
        SPLAB_ASSERT(assigned < blk.instrs,
                     "memory ops exceed block length");
        blk.mix[0] = blk.instrs - assigned;
        blk.fpInstrs = static_cast<u32>(
            phaseSpec.fpFraction * static_cast<double>(blk.mix[0]));
        blk.endsInBranch = true;

        // Stationary popularity: lognormal spread, so each phase has
        // a few dominant blocks and a tail, like real code.
        baseWeight[b] = std::exp(0.7 * build.gaussian());

        // Strongly-biased directions for most static branches.
        takenBias[b] = build.chance(0.5) ? build.uniform(0.02, 0.15)
                                         : build.uniform(0.85, 0.98);

        pc += static_cast<Addr>(blk.instrs) *
              code_layout::kBytesPerInstr;
        (void)cdf;
    }
    codeSize = pc - pcBase;
}

void
PhaseModel::rebuildChunkCdf(u64 chunk)
{
    Rng jitter(seed, chunk, 0xcdfULL);
    double driftArg =
        phaseSpec.drift > 0.0
            ? std::sin(static_cast<double>(chunk) * 0.00045)
            : 0.0;
    double acc = 0.0;
    for (u32 b = 0; b < phaseSpec.numBlocks; ++b) {
        double w = baseWeight[b];
        if (phaseSpec.blockNoise > 0.0) {
            w *= 1.0 + phaseSpec.blockNoise *
                           (jitter.uniform() * 2.0 - 1.0);
        }
        if (phaseSpec.drift > 0.0) {
            // Alternate blocks swing in opposite directions so the
            // distribution (not just the scale) drifts.
            double dir = (b & 1) ? 1.0 : -1.0;
            w *= 1.0 + phaseSpec.drift * dir * driftArg;
        }
        chunkCdf[b] = (w < 1e-9 ? 1e-9 : w) + acc;
        acc = chunkCdf[b];
    }
    for (auto &c : chunkCdf)
        c /= acc;
    pickPhase = jitter.uniform();
    pickIndex = 0;
}

void
PhaseModel::beginChunk(u64 chunk)
{
    rng = Rng(seed, chunk, 0xe7e7ULL);
    locality.rng = Rng(seed, chunk, 0x3e3eULL);
    locality.stackCursor = 0;
    kernel->beginChunk(chunk);
    rebuildChunkCdf(chunk);
    // Branch direction runs restart lazily (kRunUninit) so the
    // first execution in a chunk lands mid-run, not at a run break.
    brDir.assign(phaseSpec.numBlocks, 0);
    brRun.assign(phaseSpec.numBlocks, kRunUninit);
}

const StaticBlock &
PhaseModel::pickBlock()
{
    // Systematic (quasirandom) sampling: successive picks walk the
    // block CDF on a golden-ratio sequence, so per-chunk block
    // counts stay within O(1) of their expectation — blocks recur
    // with loop-like regularity.  (I.i.d. sampling would make slice
    // BBVs noisy multinomial draws, blurring the phase structure
    // SimPoint keys on; stateful round-robin would break the
    // chunk-addressable determinism needed for replay.)
    constexpr double kGolden = 0.6180339887498949;
    double u = pickPhase +
               static_cast<double>(pickIndex) * kGolden;
    u -= static_cast<double>(static_cast<u64>(u)); // frac
    ++pickIndex;
    std::size_t i =
        sampleCdf(chunkCdf.data(), chunkCdf.size(), u);
    return statics[i];
}

void
PhaseModel::emit(const StaticBlock &block, u32 maxInstrs,
                 bool genAddresses, BlockRecord &rec, MemAccess *accs,
                 std::size_t &nAccs, BranchRecord &br, bool &hasBranch)
{
    u32 instrs = block.instrs;
    std::array<u32, kNumMemClasses> mix = block.mix;
    u32 fp = block.fpInstrs;

    // Per-execution length jitter (early loop exits, shortcut
    // paths): up to -20%, continuous.  Besides realism, this keeps
    // slice BBVs continuous — with rigid block lengths, rarely-
    // executed blocks quantize the vectors into discrete modes that
    // the clustering mistakes for distinct phases.
    u32 target = static_cast<u32>(static_cast<double>(instrs) *
                                  rng.uniform(0.8, 1.0));
    if (target < 4)
        target = 4;
    bool cutByBudget = target > maxInstrs;
    u32 effective = cutByBudget ? maxInstrs : target;

    if (instrs > effective) {
        // Scale proportionally, preserving the exact total.
        double scale = static_cast<double>(effective) /
                       static_cast<double>(instrs);
        u32 assigned = 0;
        for (std::size_t c = 1; c < kNumMemClasses; ++c) {
            mix[c] = static_cast<u32>(
                static_cast<double>(mix[c]) * scale);
            assigned += mix[c];
        }
        instrs = effective;
        SPLAB_ASSERT(assigned <= instrs, "truncation overflow");
        mix[0] = instrs - assigned;
        fp = static_cast<u32>(static_cast<double>(fp) * scale);
    }

    rec.bb = block.id;
    rec.pc = block.pc;
    rec.instrs = instrs;
    for (std::size_t c = 0; c < kNumMemClasses; ++c)
        rec.mix.count[c] = mix[c];
    rec.fpInstrs = fp;
    // Jitter-shortened executions still end in their branch; only a
    // chunk-budget cut interrupts the block mid-body.
    rec.endsInBranch = block.endsInBranch && !cutByBudget;

    nAccs = 0;
    if (genAddresses) {
        u32 reads = mix[1] + mix[3];
        u32 writes = mix[2] + mix[3];
        kernel->fillBlock(reads, writes, locality, accs);
        nAccs = std::size_t{reads} + writes;
    }

    hasBranch = rec.endsInBranch;
    if (hasBranch) {
        br.pc = block.pc +
                static_cast<Addr>(instrs - 1) *
                    code_layout::kBytesPerInstr;
        br.dataDependent = rng.chance(phaseSpec.dataDepBranchFraction);
        u32 b = block.id - idBase;
        if (br.dataDependent) {
            // Data-dependent direction: effectively unpredictable.
            br.taken = rng.chance(0.5);
        } else {
            // Run-length direction model: branches execute in runs of
            // their majority direction with single-iteration breaks,
            // like loop back-edges.  The long-run taken fraction is
            // takenBias, and the outcome stream is learnable by a
            // history-based predictor (i.i.d. coin flips would not
            // be, which is unrepresentative of real code).
            double bias = takenBias[b];
            bool majority = bias >= 0.5;
            double majShare = majority ? bias : 1.0 - bias;
            double meanMajRun = majShare / (1.0 - majShare);
            if (brRun[b] == kRunUninit) {
                // Enter the chunk mid-run in the majority direction.
                brDir[b] = majority;
                brRun[b] = static_cast<u32>(
                    rng.burst(meanMajRun, 4096));
            }
            if (brRun[b] == 0) {
                if (brDir[b] == static_cast<u8>(majority)) {
                    // Majority run ended: one minority iteration.
                    brDir[b] = !majority;
                    brRun[b] = 1;
                } else {
                    // Back to a geometric majority run whose mean
                    // preserves the long-run bias.
                    brDir[b] = majority;
                    brRun[b] = static_cast<u32>(
                        rng.burst(meanMajRun, 4096));
                }
            }
            --brRun[b];
            br.taken = brDir[b] != 0;
        }
    }
}

} // namespace splab
