#ifndef E2EBENCH_REPLAY_H_
#define E2EBENCH_REPLAY_H_

/**
 * @file
 * In-process replay of one compile request through the layers' public
 * functions, in the order `runCompileJob` / `compilePaqoc` /
 * `compileAccqoc` call them, with a span around each call. A replay is
 * only trusted when its payload equals the daemon's byte for byte:
 * then it performed the same computation the daemon did.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "bench_lib.h"
#include "circuit/circuit.h"
#include "paqoc/compiler.h"
#include "qoc/pulse_cache.h"
#include "service/service.h"
#include "transpile/topology.h"

namespace e2ebench {

/** The frozen pulse epoch a request's cache is warmed from. */
struct Epoch
{
    std::vector<paqoc::CachedPulse> spectral;
    std::vector<paqoc::CachedPulse> grape;
};

/** What one replayed request produced, beyond its spans. */
struct ReplayOutput
{
    /** The routed hardware-basis circuit the compiler received. */
    paqoc::Circuit physical{1};
    paqoc::CompileReport report;
    /** compilePayload(...).dump(): compared with the daemon's. */
    std::string payload;
    /** GRAPE iterations charged to the request's quota token. */
    long itersCharged = 0;
    /** Merge candidates scored (0 for accqoc). */
    int mergeCandidates = 0;
};

/**
 * Replay `job` against `epoch`, recording spans on `log` (null: no
 * spans). Pulse generation runs serially on the calling thread;
 * compile reports are bit-identical for every thread count, so the
 * payload is the daemon's.
 */
ReplayOutput replayCompile(const paqoc::CompileJob &job,
                           const Epoch &epoch, SpanLog *log,
                           std::uint64_t request);

/** Topology of a job's "WxH" / "line:N" spec (as the service parses it). */
paqoc::Topology topologyOf(const std::string &spec);

} // namespace e2ebench

#endif // E2EBENCH_REPLAY_H_
