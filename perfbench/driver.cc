/**
 * @file
 * vbench: one measured pass of a campaign-benchmark workload.
 *
 * run.py launches this program once per measured iteration, so every
 * iteration starts from a fresh process, a fresh VulnerabilityStack,
 * and an empty result store — the cost a user pays for a fresh
 * campaign.  Two modes:
 *
 *   untraced  set up the stack and plan, run the plan through its
 *             public entry point (runSuite, or runFleetSuite for the
 *             fleet workload), then check the result and print one
 *             JSON line: host times, sample accounting, store digest.
 *   --trace   (a) re-run the entry point with a SuiteOptions::progress
 *             callback that timestamps completions, then (b) drive
 *             every plan entry at width 1 through the library's public
 *             calls with a span around each call, and print the
 *             per-layer metrics both parts yield.
 *
 * Spans are timed from outside the library: nothing inside src/ is
 * instrumented.  Every VSTACK_* variable is removed from the
 * environment before the stack is built, so stray settings (cache
 * sizes, fast-path hatches, result directories) cannot change what is
 * measured; the EnvConfig comes from the command line alone.
 *
 * Usage: vbench --workload NAME --seed N --jobs W --store DIR
 *               --worker PATH [--scale full|tiny] [--trace]
 *               [--corrupt-entry]
 */
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "arch/pvf.h"
#include "core/suite.h"
#include "core/vstack.h"
#include "exec/driver.h"
#include "exec/error.h"
#include "gefin/campaign.h"
#include "service/fleet.h"
#include "swfi/svf.h"
#include "uarch/config.h"
#include "workloads/workloads.h"

extern char **environ;

namespace fs = std::filesystem;
using namespace vstack;

namespace
{

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args
{
    std::string workload;
    std::string store;
    std::string worker;
    std::string scale = "full";
    uint64_t seed = 42;
    unsigned jobs = 1;
    bool trace = false;
    bool corrupt = false;
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr,
                 "vbench: %s\nusage: vbench --workload NAME --seed N "
                 "--jobs W --store DIR --worker PATH [--scale full|tiny] "
                 "[--trace] [--corrupt-entry]\n",
                 msg.c_str());
    std::exit(64);
}

uint64_t
parseUnsigned(const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno || !end || *end || *text == '-' || *text == '\0')
        usage(std::string("bad value for ") + flag + ": " + text);
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage("missing value for " + flag);
            return argv[++i];
        };
        if (flag == "--workload")
            a.workload = value();
        else if (flag == "--store")
            a.store = value();
        else if (flag == "--worker")
            a.worker = value();
        else if (flag == "--scale")
            a.scale = value();
        else if (flag == "--seed")
            a.seed = parseUnsigned("--seed", value());
        else if (flag == "--jobs")
            a.jobs = static_cast<unsigned>(parseUnsigned("--jobs", value()));
        else if (flag == "--trace")
            a.trace = true;
        else if (flag == "--corrupt-entry")
            a.corrupt = true;
        else
            usage("unknown flag " + flag);
    }
    if (a.workload.empty() || a.store.empty() || a.worker.empty())
        usage("--workload, --store and --worker are required");
    if (a.jobs == 0)
        usage("--jobs must be >= 1");
    if (a.scale != "full" && a.scale != "tiny")
        usage("--scale must be full or tiny");
    return a;
}

/** Remove every VSTACK_* variable from the process environment (fleet
 *  workers inherit the cleaned environment). */
void
scrubEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e) {
        const std::string kv = *e;
        if (kv.rfind("VSTACK_", 0) == 0)
            names.push_back(kv.substr(0, kv.find('=')));
    }
    for (const std::string &n : names)
        unsetenv(n.c_str());
}

/** A named workload: its plan, sample counts, and entry point. */
struct BenchWorkload
{
    CampaignPlan plan;
    size_t uarchFaults = 0;
    size_t archFaults = 0;
    size_t swFaults = 0;
    bool fleet = false;
};

bool
makeWorkload(const std::string &name, bool tiny, BenchWorkload &w)
{
    const std::vector<Workload> &paper = paperWorkloads();
    if (name == "uarch-deep") {
        // One golden run and trace, ~1k faults per structure: the
        // per-sample cycle-level path dominates.
        w.plan.addUarchAll("ax72", Variant{"sha", false});
        w.uarchFaults = tiny ? 4 : 1000;
        w.archFaults = w.swFaults = w.uarchFaults;
    } else if (name == "fig04-grid" || name == "fig04-fleet") {
        // The fig04 manifest: PVF av64/WD, SVF, and uarch ax72 x 5
        // structures over the paper workloads, few samples each, so
        // compile, golden runs and traces weigh as much as samples.
        for (const Workload &p : paper) {
            const Variant v{p.name, false};
            w.plan.addPvf(IsaId::Av64, v, Fpm::WD);
            w.plan.addSvf(v);
            w.plan.addUarchAll("ax72", v);
        }
        w.uarchFaults = tiny ? 2 : 24;
        w.archFaults = w.swFaults = tiny ? 3 : 72;
        w.fleet = name == "fig04-fleet";
    } else if (name == "arch-sw") {
        // PVF on both ISAs x three FPMs plus SVF: no cycle-level
        // simulation, so ArchSim and IrInterp do the work.
        for (const Workload &p : paper) {
            const Variant v{p.name, false};
            for (IsaId isa : {IsaId::Av32, IsaId::Av64})
                for (Fpm f : {Fpm::WD, Fpm::WI, Fpm::WOI})
                    w.plan.addPvf(isa, v, f);
            w.plan.addSvf(v);
        }
        w.uarchFaults = tiny ? 3 : 24;
        w.archFaults = tiny ? 3 : 64;
        w.swFaults = tiny ? 3 : 600;
    } else {
        return false;
    }
    return true;
}

EnvConfig
makeConfig(const Args &a, const BenchWorkload &w, const std::string &store,
           unsigned jobs)
{
    EnvConfig cfg = EnvConfig::fromEnvironment(); // defaults: env is clean
    cfg.uarchFaults = w.uarchFaults;
    cfg.archFaults = w.archFaults;
    cfg.swFaults = w.swFaults;
    cfg.seed = a.seed;
    cfg.jobs = jobs;
    cfg.resultsDir = store;
    cfg.resume = false;
    return cfg;
}

struct Usage
{
    double cpuSelf = 0;
    double cpuChildren = 0;
    double maxRssMb = 0;

    static Usage now()
    {
        auto secs = [](const timeval &tv) {
            return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
        };
        rusage self{}, kids{};
        getrusage(RUSAGE_SELF, &self);
        getrusage(RUSAGE_CHILDREN, &kids);
        Usage u;
        u.cpuSelf = secs(self.ru_utime) + secs(self.ru_stime);
        u.cpuChildren = secs(kids.ru_utime) + secs(kids.ru_stime);
        u.maxRssMb =
            static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) /
            1024.0;
        return u;
    }
};

/** One run of the plan through its public entry point. */
struct EntryRun
{
    SuiteReport report;
    service::FleetStats fleet;
    double wall = 0;
    double cpuSelf = 0;     ///< supervisor / driver process
    double cpuChildren = 0; ///< reaped fleet workers
    double maxRssMb = 0;
};

EntryRun
runEntry(VulnerabilityStack &stack, const BenchWorkload &w, const Args &a,
         const SuiteOptions &opts)
{
    EntryRun r;
    const Usage u0 = Usage::now();
    const auto t0 = Clock::now();
    if (w.fleet) {
        service::FleetOptions fo;
        fo.workers = a.jobs;
        fo.workerPath = a.worker;
        r.report = service::runFleetSuite(stack, w.plan, opts, fo, &r.fleet);
    } else {
        r.report = runSuite(stack, w.plan, opts);
    }
    r.wall = since(t0);
    const Usage u1 = Usage::now();
    r.cpuSelf = u1.cpuSelf - u0.cpuSelf;
    r.cpuChildren = u1.cpuChildren - u0.cpuChildren;
    r.maxRssMb = u1.maxRssMb;
    return r;
}

/** Result of checking one finished store against its report. */
struct Check
{
    uint64_t attempted = 0;
    uint64_t classified = 0;
    uint64_t quarantined = 0;
    uint64_t failed = 0;
    std::vector<std::string> errors;
    std::string digest;
};

/** Change one digit of the first plan entry's stored payload, keeping
 *  the JSON well-formed so only the CRC can notice (the self-test's
 *  corrupted-entry case). */
void
corruptEntry(const ResultStore &store, const std::string &key)
{
    const std::string path = store.pathFor(key);
    std::string body;
    if (!readFile(path, body))
        return;
    const size_t at = body.find_last_of("0123456789");
    if (at == std::string::npos)
        return;
    body[at] = body[at] == '9' ? '8' : static_cast<char>(body[at] + 1);
    writeFile(path, body);
}

/** FNV-1a 64 over every regular file directly in `dir`, by name. */
std::string
storeDigest(const std::string &dir)
{
    std::vector<fs::path> files;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.is_regular_file())
            files.push_back(e.path());
    std::sort(files.begin(), files.end());
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const char *p, size_t n) {
        for (size_t i = 0; i < n; ++i) {
            h ^= static_cast<unsigned char>(p[i]);
            h *= 1099511628211ull;
        }
    };
    for (const fs::path &p : files) {
        const std::string name = p.filename().string();
        mix(name.c_str(), name.size() + 1);
        std::ifstream in(p, std::ios::binary);
        const std::string body((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
        mix(body.data(), body.size());
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Encode an outcome's layer result exactly as the store holds it. */
std::string
encodeOutcome(const CampaignOutcome &o)
{
    return o.spec.layer == CampaignLayer::Uarch
               ? campaign_io::uarchToJson(o.uarch).dump()
               : campaign_io::countsToJson(o.counts).dump();
}

/**
 * The output check: per-campaign sample accounting (classified plus
 * quarantined equals attempted), no cache hits, no failed campaigns,
 * and every store entry reading back CRC-clean and equal to the
 * report.  A campaign failing any of these counts all its samples as
 * failed; otherwise only its quarantined samples do.
 */
Check
checkRun(const EnvConfig &cfg, const CampaignPlan &plan,
         const SuiteReport &report, bool corrupt)
{
    Check c;
    const ResultStore store(cfg.resultsDir);
    if (corrupt && !plan.empty())
        corruptEntry(store, campaignKey(cfg, plan.specs().front()));
    if (report.outcomes.size() != plan.size())
        c.errors.push_back("report has " +
                           std::to_string(report.outcomes.size()) +
                           " outcomes for " + std::to_string(plan.size()) +
                           " plan entries");
    for (size_t i = 0; i < plan.size(); ++i) {
        const CampaignSpec &spec = plan.specs()[i];
        const uint64_t n = campaignSamples(cfg, spec);
        c.attempted += n;
        if (i >= report.outcomes.size()) {
            c.failed += n;
            continue;
        }
        const CampaignOutcome &o = report.outcomes[i];
        const std::string label = spec.label();
        std::string bad;
        uint64_t classified = 0, quarantined = 0;
        if (o.spec.layer == CampaignLayer::Uarch) {
            classified = o.uarch.samples;
            quarantined = o.uarch.outcomes.injectorErrors;
            if (o.uarch.outcomes.total() != o.uarch.samples)
                bad = "outcome counts do not sum to classified samples";
        } else {
            classified = o.counts.total();
            quarantined = o.counts.injectorErrors;
        }
        if (o.cacheHit) {
            bad = "served from the result store (cache hit)";
        } else if (!o.error.empty()) {
            bad = "campaign failed: " + o.error;
        } else if (!o.complete) {
            bad = "campaign incomplete";
        } else if (bad.empty() && classified + quarantined != n) {
            bad = "classified " + std::to_string(classified) +
                  " + quarantined " + std::to_string(quarantined) +
                  " != attempted " + std::to_string(n);
        }
        if (bad.empty()) {
            const auto stored = store.get(campaignKey(cfg, spec));
            if (!stored) {
                bad = "store entry missing or corrupt";
            } else {
                CampaignOutcome back;
                back.spec = spec;
                decodeCampaignOutcome(back, *stored);
                if (encodeOutcome(back) != encodeOutcome(o))
                    bad = "store entry differs from the report";
            }
        }
        if (!bad.empty()) {
            c.failed += n;
            c.errors.push_back(label + ": " + bad);
        } else {
            c.classified += classified;
            c.quarantined += quarantined;
            c.failed += quarantined;
        }
    }
    c.digest = storeDigest(cfg.resultsDir);
    return c;
}

Json
stringsJson(const std::vector<std::string> &v)
{
    Json a = Json::array();
    for (const std::string &e : v)
        a.push(e);
    return a;
}

Json
checkJson(const Check &c)
{
    Json j = Json::object();
    j.set("attempted", c.attempted);
    j.set("classified", c.classified);
    j.set("quarantined", c.quarantined);
    j.set("failed", c.failed);
    j.set("digest", c.digest);
    j.set("errors", stringsJson(c.errors));
    return j;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/** Nearest-rank percentile of `v` (0 when empty). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank ? rank - 1 : 0)];
}

/** The set-up a user pays before submitting: stack construction, plan
 *  expansion, and an empty store directory. */
std::unique_ptr<VulnerabilityStack>
setUp(const Args &a, const std::string &store, unsigned jobs, BenchWorkload &w,
      EnvConfig &cfg)
{
    w = BenchWorkload{};
    if (!makeWorkload(a.workload, a.scale == "tiny", w))
        usage("unknown workload " + a.workload);
    fs::create_directories(store);
    cfg = makeConfig(a, w, store, jobs);
    return std::make_unique<VulnerabilityStack>(cfg);
}

/** Set-ups timed per untraced iteration: set-up takes microseconds, so
 *  one sample of it is mostly noise. */
constexpr unsigned kSetupReps = 32;

/** Untraced mode: timed set-up (median of kSetupReps), one entry-point
 *  run, the output check. */
Json
untraced(const Args &a)
{
    std::vector<double> setups;
    for (unsigned r = 1; r < kSetupReps; ++r) {
        const std::string dir = a.store + ".setup" + std::to_string(r);
        BenchWorkload w;
        EnvConfig cfg;
        const auto t0 = Clock::now();
        auto stack = setUp(a, dir, a.jobs, w, cfg);
        setups.push_back(since(t0));
        stack.reset();
        fs::remove_all(dir);
    }
    BenchWorkload w;
    EnvConfig cfg;
    const auto t0 = Clock::now();
    auto stack = setUp(a, a.store, a.jobs, w, cfg);
    setups.push_back(since(t0));

    const EntryRun r = runEntry(*stack, w, a, {});
    const Check c = checkRun(cfg, w.plan, r.report, a.corrupt);

    Json j = checkJson(c);
    j.set("wall_s", r.wall);
    j.set("cpu_s", r.cpuSelf + r.cpuChildren);
    j.set("peak_rss_mb", r.maxRssMb);
    j.set("setup_s", median(setups));
    return j;
}

/** Span totals of the layer pass. */
struct Spans
{
    std::map<std::string, double> sec;
    std::map<std::string, std::vector<double>> sampleMs;
    double last = 0; ///< duration of the latest span

    double total() const
    {
        double t = 0;
        for (const auto &[name, s] : sec)
            t += s;
        return t;
    }

    template <class F>
    auto span(const std::string &name, F &&fn)
    {
        const auto t0 = Clock::now();
        struct Close
        {
            Spans &s;
            const std::string &name;
            Clock::time_point t0;
            ~Close()
            {
                s.last = since(t0);
                s.sec[name] += s.last;
            }
        } close{*this, name, t0};
        return fn();
    }
};

const char *
layerPrefix(CampaignLayer l)
{
    switch (l) {
      case CampaignLayer::Uarch: return "gefin";
      case CampaignLayer::Pvf: return "arch";
      case CampaignLayer::Svf: return "swfi";
    }
    return "?";
}

/** Width-1 layer pass: every plan entry driven through the public
 *  calls, one span per call. */
struct LayerPass
{
    Spans spans;
    double wall = 0;
    uint64_t builds = 0;
    uint64_t goldens = 0;
    double goldenCycles = 0;
    double goldenInsts = 0;
    double goldenSteps = 0;
    uint64_t uarchSamples = 0;
    uint64_t visible = 0;
    uint64_t invisibleFailures = 0;
    uint64_t storePuts = 0;
    uint64_t storeBytes = 0;
    uint64_t quarantined = 0;
    std::vector<std::string> errors;
    std::string digest;
};

LayerPass
layerPass(const Args &a, const std::string &store)
{
    LayerPass L;
    BenchWorkload w;
    EnvConfig cfg;
    auto stack = setUp(a, store, 1, w, cfg);
    const ResultStore &rs = stack->resultStore();
    std::set<std::string> artifacts;
    std::set<std::string> keys;
    std::map<std::string, std::weak_ptr<UarchCampaign>> seenGolden;
    Spans &S = L.spans;

    const auto t0 = Clock::now();
    for (const CampaignSpec &spec : w.plan.specs()) {
        const std::string key = campaignKey(cfg, spec);
        if (!keys.insert(key).second)
            continue; // duplicate spec: the scheduler shares one run
        const size_t n = campaignSamples(cfg, spec);
        const std::string pre = layerPrefix(spec.layer);
        try {
            CampaignExec ce;
            std::string sub; // per-structure / per-FPM sample series
            switch (spec.layer) {
              case CampaignLayer::Uarch: {
                const CoreConfig &cc = coreByName(spec.core);
                if (artifacts
                        .insert("img/" + spec.variant.tag() + "/" +
                                isaName(cc.isa))
                        .second)
                    ++L.builds;
                S.span("compiler.build",
                       [&] { return &stack->imageFor(spec.variant, cc.isa); });
                const std::string gk = spec.core + "/" + spec.variant.tag();
                ce.uarchCampaign = S.span("gefin.golden", [&] {
                    return stack->campaignFor(spec.core, spec.variant);
                });
                if (seenGolden[gk].lock() != ce.uarchCampaign) {
                    ++L.goldens;
                    L.goldenCycles +=
                        static_cast<double>(ce.uarchCampaign->golden().cycles);
                    seenGolden[gk] = ce.uarchCampaign;
                }
                S.span("gefin.trace", [&] {
                    ce.uarchCampaign->ensureTrace();
                    return 0;
                });
                sub = structureName(spec.structure);
                ce.driver = std::make_unique<UarchDriver>(
                    *ce.uarchCampaign, spec.structure, n, cfg.seed);
                break;
              }
              case CampaignLayer::Pvf:
                if (artifacts
                        .insert("img/" + spec.variant.tag() + "/" +
                                isaName(spec.isa))
                        .second)
                    ++L.builds;
                S.span("compiler.build", [&] {
                    return &stack->imageFor(spec.variant, spec.isa);
                });
                ce.pvfCampaign = S.span("arch.golden", [&] {
                    return stack->makePvfCampaign(spec.isa, spec.variant);
                });
                L.goldenInsts +=
                    static_cast<double>(ce.pvfCampaign->golden().insts);
                S.span("arch.trace", [&] {
                    ce.pvfCampaign->ensureTrace();
                    return 0;
                });
                sub = fpmName(spec.fpm);
                ce.driver = std::make_unique<PvfDriver>(
                    *ce.pvfCampaign, spec.fpm, n, cfg.seed);
                break;
              case CampaignLayer::Svf:
                if (artifacts.insert("ir/" + spec.variant.tag() + "/64")
                        .second)
                    ++L.builds;
                S.span("compiler.build",
                       [&] { return &stack->irFor(spec.variant, 64); });
                ce.svfCampaign = S.span("swfi.golden", [&] {
                    return stack->makeSvfCampaign(spec.variant);
                });
                L.goldenSteps +=
                    static_cast<double>(ce.svfCampaign->golden().steps);
                S.span("swfi.trace", [&] {
                    ce.svfCampaign->ensureTrace();
                    return 0;
                });
                ce.driver = std::make_unique<SvfDriver>(*ce.svfCampaign, n,
                                                        cfg.seed);
                break;
            }
            exec::LayerDriver &d = *ce.driver;
            auto ctx = S.span("exec.prepare", [&] {
                exec::prepareDriver(d);
                return d.makeCtx();
            });

            // Dispatch in the executor's order: by injection point when
            // the driver asks for it (checkpoint-restore locality).
            std::vector<size_t> order(n);
            for (size_t i = 0; i < n; ++i)
                order[i] = i;
            if (d.scheduled())
                std::stable_sort(order.begin(), order.end(),
                                 [&d](size_t x, size_t y) {
                                     return d.scheduleKey(x) <
                                            d.scheduleKey(y);
                                 });
            std::vector<std::optional<Json>> samples(n);
            const std::string sampleSpan = pre + ".sample";
            std::vector<double> &all = S.sampleMs[pre];
            std::vector<double> *bySub =
                sub.empty() ? nullptr : &S.sampleMs[pre + "." + sub];
            for (size_t i : order) {
                try {
                    samples[i] = S.span(sampleSpan, [&] {
                        return exec::runDriverSample(d, *ctx, i);
                    });
                } catch (const SimError &) {
                    ++L.quarantined;
                }
                all.push_back(S.last * 1e3);
                if (bySub)
                    bySub->push_back(S.last * 1e3);
                if (spec.layer == CampaignLayer::Uarch && samples[i]) {
                    ++L.uarchSamples;
                    const Json &p = *samples[i];
                    if (p.at("v").asBool())
                        ++L.visible;
                    else if (static_cast<Outcome>(p.at("o").asInt()) !=
                             Outcome::Masked)
                        ++L.invisibleFailures;
                }
            }
            const Json folded = S.span(
                "core.fold", [&] { return foldCampaignSamples(spec, samples); });
            S.span("core.store_put", [&] {
                rs.put(key, folded);
                return 0;
            });
            ++L.storePuts;
            std::error_code ec;
            const auto bytes = fs::file_size(rs.pathFor(key), ec);
            if (!ec)
                L.storeBytes += bytes;
        } catch (const SimError &e) {
            L.errors.push_back(spec.label() + ": " + e.what());
        }
    }
    L.wall = since(t0);
    L.digest = storeDigest(store);
    return L;
}

/** Traced mode: (a) the entry point with timestamped progress, (b) the
 *  width-1 layer pass. */
Json
traced(const Args &a)
{
    const std::string entryStore = a.store + "/entry";
    const std::string layerStore = a.store + "/layer";

    BenchWorkload w;
    EnvConfig cfg;
    auto stack = setUp(a, entryStore, a.jobs, w, cfg);
    std::vector<std::pair<size_t, double>> marks;
    size_t samplesTotal = 0;
    const auto tSubmit = Clock::now();
    SuiteOptions opts;
    opts.progress = [&](const SuiteProgress &p) {
        samplesTotal = p.samplesTotal;
        if (marks.empty() || marks.back().first != p.samplesDone)
            marks.emplace_back(p.samplesDone, since(tSubmit));
    };
    const EntryRun r = runEntry(*stack, w, a, opts);
    const Check c = checkRun(cfg, w.plan, r.report, a.corrupt);
    const uint64_t evictions = stack->goldenEvictions();
    stack.reset();

    // Marks are in completion order.  The drain starts when fewer than
    // W samples remain, so some workers must idle.
    const size_t drainAt =
        samplesTotal > a.jobs ? samplesTotal - a.jobs : 0;
    auto markTime = [&](auto pred) {
        for (const auto &[done, t] : marks)
            if (pred(done))
                return t;
        return r.wall;
    };
    const double firstSample = markTime([](size_t d) { return d > 0; });
    const double drainStart =
        markTime([drainAt](size_t d) { return d >= drainAt; });

    const LayerPass L = layerPass(a, layerStore);
    const Spans &S = L.spans;
    auto sec = [&](const std::string &n) {
        auto it = S.sec.find(n);
        return it == S.sec.end() ? 0.0 : it->second;
    };
    auto ms = [&](const std::string &n, double p) {
        auto it = S.sampleMs.find(n);
        return it == S.sampleMs.end() ? 0.0 : percentile(it->second, p);
    };
    auto rate = [](double work, double s) { return s > 0 ? work / s : 0.0; };

    Json m = Json::object();
    auto put = [&m](const std::string &name, double v, const char *unit) {
        Json e = Json::object();
        e.set("value", v);
        e.set("unit", unit);
        m.set(name, std::move(e));
    };
    put("compiler.build_s", sec("compiler.build"), "s");
    put("compiler.builds", static_cast<double>(L.builds), "count");
    put("gefin.golden_s", sec("gefin.golden"), "s");
    put("gefin.goldens", static_cast<double>(L.goldens), "count");
    put("gefin.trace_s", sec("gefin.trace"), "s");
    put("uarch.golden_cycles_per_s",
        rate(L.goldenCycles, sec("gefin.golden")), "1/s");
    put("exec.prepare_s", sec("exec.prepare"), "s");
    put("gefin.sample_s", sec("gefin.sample"), "s");
    put("gefin.sample_ms_p50", ms("gefin", 50), "ms");
    put("gefin.sample_ms_p99", ms("gefin", 99), "ms");
    for (Structure s : allStructures)
        put(std::string("gefin.") + structureName(s) + ".sample_ms_p50",
            ms(std::string("gefin.") + structureName(s), 50), "ms");
    put("gefin.visible_frac",
        L.uarchSamples ? static_cast<double>(L.visible) /
                             static_cast<double>(L.uarchSamples)
                       : 0.0,
        "fraction");
    put("gefin.invisible_failures", static_cast<double>(L.invisibleFailures),
        "count");
    put("arch.golden_s", sec("arch.golden"), "s");
    put("arch.golden_insts_per_s", rate(L.goldenInsts, sec("arch.golden")),
        "1/s");
    put("arch.trace_s", sec("arch.trace"), "s");
    put("arch.sample_s", sec("arch.sample"), "s");
    put("arch.sample_ms_p50", ms("arch", 50), "ms");
    put("arch.sample_ms_p99", ms("arch", 99), "ms");
    for (Fpm f : {Fpm::WD, Fpm::WI, Fpm::WOI})
        put(std::string("arch.") + fpmName(f) + ".sample_ms_p50",
            ms(std::string("arch.") + fpmName(f), 50), "ms");
    put("swfi.golden_s", sec("swfi.golden"), "s");
    put("swfi.golden_steps_per_s", rate(L.goldenSteps, sec("swfi.golden")),
        "1/s");
    put("swfi.trace_s", sec("swfi.trace"), "s");
    put("swfi.sample_s", sec("swfi.sample"), "s");
    put("swfi.sample_ms_p50", ms("swfi", 50), "ms");
    put("swfi.sample_ms_p99", ms("swfi", 99), "ms");
    put("exec.quarantined", static_cast<double>(c.quarantined), "count");
    put("core.fold_s", sec("core.fold"), "s");
    put("core.store_put_s", sec("core.store_put"), "s");
    put("core.store_puts", static_cast<double>(L.storePuts), "count");
    put("core.store_bytes", static_cast<double>(L.storeBytes), "bytes");
    put("suite.first_sample_s", firstSample, "s");
    put("suite.drain_s", r.wall - drainStart, "s");
    put("suite.golden_evictions", static_cast<double>(evictions), "count");
    put("suite.cpu_util",
        rate(r.cpuSelf + r.cpuChildren, r.wall * a.jobs), "fraction");
    put("fleet.spawns", r.fleet.spawns, "count");
    put("fleet.leases", r.fleet.leases, "count");
    put("fleet.speculative_leases", r.fleet.speculativeLeases, "count");
    put("fleet.deaths", r.fleet.deaths, "count");
    put("fleet.degraded", r.fleet.degraded ? 1.0 : 0.0, "count");
    put("fleet.worker_cpu_s", w.fleet ? r.cpuChildren : 0.0, "s");
    put("fleet.supervisor_cpu_s", w.fleet ? r.cpuSelf : 0.0, "s");
    put("layer.pass_s", L.wall, "s");
    put("layer.span_coverage", rate(S.total(), L.wall), "fraction");

    Json j = Json::object();
    Json entry = checkJson(c);
    entry.set("wall_s", r.wall);
    entry.set("cpu_s", r.cpuSelf + r.cpuChildren);
    j.set("entry", std::move(entry));
    Json layer = Json::object();
    layer.set("digest", L.digest);
    layer.set("span_total_s", S.total());
    layer.set("errors", stringsJson(L.errors));
    layer.set("quarantined", L.quarantined);
    j.set("layer", std::move(layer));
    j.set("metrics", std::move(m));
    return j;
}

} // namespace

int
main(int argc, char **argv)
{
    scrubEnvironment();
    const Args a = parseArgs(argc, argv);
    try {
        Json out = a.trace ? traced(a) : untraced(a);
        Json build = Json::object();
        build.set("type", VBENCH_BUILD_TYPE);
        build.set("compiler", VBENCH_COMPILER);
        out.set("build", std::move(build));
        std::printf("%s\n", out.dump().c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "vbench: %s: %s\n", a.workload.c_str(),
                     e.what());
        return 1;
    }
    return 0;
}
