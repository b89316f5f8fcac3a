/**
 * @file
 * Tests for qpad::exec — cancellation tokens, deadlines, and request
 * contexts — plus the contract
 * that matters most: a context decides only WHETHER a result exists,
 * never its bytes, and a stopped context unwinds promptly as
 * exec::CancelledError from every ctx-threaded entry point.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "arch/architecture.hh"
#include "arch/ibm.hh"
#include "circuit/circuit.hh"
#include "design/anneal.hh"
#include "design/freq_alloc.hh"
#include "exec/cancel.hh"
#include "exec/context.hh"
#include "obs/log.hh"
#include "obs/metrics.hh"
#include "obs/request_report.hh"
#include "profile/coupling.hh"
#include "yield/yield_sim.hh"

namespace
{

using namespace qpad;
using namespace std::chrono_literals;
using arch::Architecture;
using arch::Layout;
using exec::CancelledError;
using exec::CancelToken;
using exec::Context;
using exec::StopReason;

// --------------------------------------------------------------------
// CancelToken
// --------------------------------------------------------------------

TEST(CancelToken, FreshTokenIsClean)
{
    CancelToken tok;
    EXPECT_FALSE(tok.cancelRequested());
    EXPECT_FALSE(tok.hasDeadline());
    EXPECT_EQ(tok.stopReason(), StopReason::kNone);
    // Polling a clean token (or none at all) is a no-op.
    EXPECT_NO_THROW(exec::throwIfStopped(&tok));
    EXPECT_NO_THROW(exec::throwIfStopped(nullptr));
}

TEST(CancelToken, CancelIsSticky)
{
    CancelToken tok;
    tok.cancel();
    EXPECT_TRUE(tok.cancelRequested());
    EXPECT_EQ(tok.stopReason(), StopReason::kCancelled);
    // Still cancelled after deadline churn: cancel is sticky.
    tok.setDeadline(exec::now() + 1h);
    tok.clearDeadline();
    EXPECT_EQ(tok.stopReason(), StopReason::kCancelled);
}

TEST(CancelToken, DeadlineExpiryReportsAndThrows)
{
    CancelToken tok;
    tok.setDeadline(exec::now() - 1ns);
    EXPECT_TRUE(tok.hasDeadline());
    EXPECT_EQ(tok.stopReason(), StopReason::kDeadlineExceeded);
    try {
        exec::throwIfStopped(&tok);
        FAIL() << "expected CancelledError";
    } catch (const CancelledError &e) {
        EXPECT_EQ(e.reason(), StopReason::kDeadlineExceeded);
    }
}

TEST(CancelToken, FutureDeadlineDoesNotStop)
{
    CancelToken tok;
    tok.setDeadline(exec::now() + 1h);
    EXPECT_TRUE(tok.hasDeadline());
    EXPECT_EQ(tok.stopReason(), StopReason::kNone);
    tok.clearDeadline();
    EXPECT_FALSE(tok.hasDeadline());
}

TEST(CancelToken, CancelWinsOverDeadline)
{
    CancelToken tok;
    tok.setDeadline(exec::now() - 1ns);
    tok.cancel();
    EXPECT_EQ(tok.stopReason(), StopReason::kCancelled);
}

// --------------------------------------------------------------------
// Context
// --------------------------------------------------------------------

TEST(Context, NoneIsNeverStopped)
{
    const Context &none = Context::none();
    EXPECT_FALSE(none.cancelRequested());
    EXPECT_EQ(none.stopReason(), StopReason::kNone);
    EXPECT_NO_THROW(none.throwIfStopped());
}

TEST(Context, CopiesShareCancelState)
{
    Context ctx;
    Context copy = ctx;
    copy.cancel();
    EXPECT_TRUE(ctx.cancelRequested());
    EXPECT_THROW(ctx.throwIfStopped(), CancelledError);
}

TEST(Context, SetDeadlineAfterZeroBudgetExpires)
{
    Context ctx;
    ctx.setDeadlineAfter(0ns);
    EXPECT_EQ(ctx.stopReason(), StopReason::kDeadlineExceeded);
}

TEST(Context, SetDeadlineAfterHugeBudgetNeverExpires)
{
    // now() + budget would wrap into the past; it saturates instead.
    Context ctx;
    ctx.setDeadlineAfter(std::chrono::nanoseconds::max());
    EXPECT_EQ(ctx.stopReason(), StopReason::kNone);
    // The largest QPAD_DEADLINE_MS the benches accept.
    Context bench_max;
    bench_max.setDeadlineAfter(std::chrono::milliseconds(
        std::chrono::nanoseconds::max().count() / 1000000));
    EXPECT_EQ(bench_max.stopReason(), StopReason::kNone);
}

TEST(Context, ApplyAttachesTokenOnlyWhenUnset)
{
    Context ctx;
    runtime::Options base;
    base.num_threads = 3;
    const runtime::Options applied = ctx.apply(base);
    EXPECT_EQ(applied.cancel, ctx.token());
    EXPECT_EQ(applied.num_threads, 3u); // other fields pass through

    // Innermost wins: an already-attached token is left alone.
    CancelToken inner;
    runtime::Options preset;
    preset.cancel = &inner;
    EXPECT_EQ(ctx.apply(preset).cancel, &inner);
}

TEST(Context, RequestScopeCountsRequests)
{
    const uint64_t before = obs::counter("exec.requests").value();
    {
        exec::RequestScope scope;
    }
    EXPECT_EQ(obs::counter("exec.requests").value(), before + 1);
}

TEST(Context, RequestIdsAreUniqueAndStable)
{
    EXPECT_EQ(Context::none().id(), 0u);
    Context a;
    Context b;
    EXPECT_NE(a.id(), 0u);
    EXPECT_NE(b.id(), 0u);
    EXPECT_NE(a.id(), b.id());
    // Copies are the same request, not a new one.
    const Context copy = a;
    EXPECT_EQ(copy.id(), a.id());
}

TEST(Context, ApplyStampsRequestIdOnlyWhenUnset)
{
    Context ctx;
    runtime::Options base;
    EXPECT_EQ(ctx.apply(base).request_id, ctx.id());

    // Innermost wins, same as the cancel token: a pre-stamped id is
    // left alone.
    runtime::Options preset;
    preset.request_id = 7;
    EXPECT_EQ(ctx.apply(preset).request_id, 7u);

    // Context::none() never tags anything.
    EXPECT_EQ(Context::none().apply(base).request_id, 0u);
}

TEST(Context, RequestScopeTagsThreadAndRestores)
{
    const uint64_t prev = obs::currentRequestId();
    Context ctx;
    {
        exec::RequestScope scope(ctx, "tag_test");
        EXPECT_EQ(obs::currentRequestId(), ctx.id());
        EXPECT_EQ(scope.id(), ctx.id());
        // A nested no-request scope must not erase the tag.
        {
            obs::ScopedRequestId nested(0);
            EXPECT_EQ(obs::currentRequestId(), ctx.id());
        }
        EXPECT_EQ(obs::currentRequestId(), ctx.id());
    }
    EXPECT_EQ(obs::currentRequestId(), prev);
}

TEST(Context, FinishReportCarriesIdNameStopAndDeltas)
{
    Context ctx;
    ctx.setDeadlineAfter(0ns);
    exec::RequestScope scope(ctx, "unit_report");
    obs::counter("exec.test_report_series").add(3);
    const obs::RequestReport report = scope.finish();

    EXPECT_EQ(report.id, ctx.id());
    EXPECT_EQ(report.name, "unit_report");
    EXPECT_EQ(report.stop, StopReason::kDeadlineExceeded);
    EXPECT_GE(report.wall_seconds, 0.0);

    // The deltas hold exactly what moved during the scope: the series
    // above, and the scope's own exec.requests increment.
    const obs::Sample *series =
        obs::find(report.metrics, "exec.test_report_series");
    ASSERT_NE(series, nullptr);
    EXPECT_EQ(series->value, 3.0);
    const obs::Sample *requests =
        obs::find(report.metrics, "exec.requests");
    ASSERT_NE(requests, nullptr);
    EXPECT_EQ(requests->value, 1.0);
}

TEST(Context, RequestReportJsonIsWellFormed)
{
    Context ctx;
    ctx.cancel();
    exec::RequestScope scope(ctx, "json_report");
    const obs::RequestReport report = scope.finish();
    const std::string json = obs::requestReportJson(report);

    EXPECT_NE(json.find("\"id\":" + std::to_string(ctx.id())),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"name\":\"json_report\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"stop\":\"cancelled\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"metrics\":["), std::string::npos) << json;
    // Braces and brackets balance — the line is one JSON object.
    int depth = 0;
    for (char c : json) {
        if (c == '{' || c == '[')
            ++depth;
        if (c == '}' || c == ']')
            --depth;
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

// --------------------------------------------------------------------
// Cancellation through the compute entry points
// --------------------------------------------------------------------

profile::CouplingProfile
smallProfile()
{
    circuit::Circuit c(6);
    for (circuit::Qubit q = 0; q + 1 < 6; ++q)
        c.cx(q, q + 1);
    c.cx(0, 5);
    c.cx(2, 4);
    return profile::profileCircuit(c);
}

TEST(ExecCancel, ExpiredDeadlineStopsAnneal)
{
    auto prof = smallProfile();
    auto start = design::designLayout(prof);
    design::AnnealOptions opts;
    opts.iterations = 200000; // would take a while if not stopped
    Context ctx;
    ctx.setDeadlineAfter(0ns);
    try {
        design::annealLayout(prof, start, opts, ctx);
        FAIL() << "expected CancelledError";
    } catch (const CancelledError &e) {
        EXPECT_EQ(e.reason(), StopReason::kDeadlineExceeded);
    }
}

TEST(ExecCancel, BenignContextLeavesAnnealBitIdentical)
{
    // The determinism contract: attaching a context that never stops
    // must not change a single byte of the result.
    auto prof = smallProfile();
    auto start = design::designLayout(prof);
    design::AnnealOptions opts;
    opts.iterations = 4000;
    opts.restarts = 2;
    auto plain = design::annealLayout(prof, start, opts);
    Context ctx;
    ctx.setDeadline(exec::now() + 1h); // armed but never expires
    auto guarded = design::annealLayout(prof, start, opts, ctx);
    EXPECT_EQ(plain.final_cost, guarded.final_cost);
    EXPECT_EQ(plain.winning_chain, guarded.winning_chain);
    EXPECT_EQ(plain.layout.coord_of_logical,
              guarded.layout.coord_of_logical);
}

TEST(ExecCancel, CancelledContextStopsEstimateYield)
{
    auto arch = arch::ibm16Q(false);
    yield::YieldOptions opts;
    opts.trials = 4000;
    Context ctx;
    ctx.cancel();
    EXPECT_THROW(yield::estimateYield(arch, opts, ctx),
                 CancelledError);
}

TEST(ExecCancel, ExpiredDeadlineStopsFreqAlloc)
{
    Architecture arch(Layout::grid(3, 3));
    design::FreqAllocOptions opts;
    opts.local_trials = 200;
    Context ctx;
    ctx.setDeadlineAfter(0ns);
    EXPECT_THROW(design::allocateFrequencies(arch, opts, ctx),
                 CancelledError);
}

TEST(ExecCancel, StoppedRunsCountInMetrics)
{
    const uint64_t before = obs::counter("exec.cancelled").value();
    Context ctx;
    ctx.cancel();
    EXPECT_THROW(ctx.throwIfStopped(), CancelledError);
    EXPECT_GE(obs::counter("exec.cancelled").value(), before + 1);
}

} // namespace
