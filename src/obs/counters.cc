#include "counters.hh"

#include <memory>
#include <mutex>

namespace splab
{
namespace obs
{

namespace
{

/**
 * The registry maps are append-only and guarded by one mutex; the
 * Counter/Gauge objects themselves are lock-free, so only the first
 * lookup of each name pays for the lock (call sites cache the
 * reference in a function-local static).
 */
struct Registry
{
    std::mutex mtx;
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::string> descriptions;
};

Registry &
registry()
{
    static Registry *r = new Registry(); // leaked: outlives statics
    return *r;
}

} // namespace

Counter &
counter(const std::string &name, const std::string &desc)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> g(r.mtx);
    auto &slot = r.counters[name];
    if (!slot) {
        slot = std::make_unique<Counter>();
        if (!desc.empty())
            r.descriptions[name] = desc;
    }
    return *slot;
}

Gauge &
gauge(const std::string &name, const std::string &desc)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> g(r.mtx);
    auto &slot = r.gauges[name];
    if (!slot) {
        slot = std::make_unique<Gauge>();
        if (!desc.empty())
            r.descriptions[name] = desc;
    }
    return *slot;
}

std::map<std::string, u64>
counterSnapshot()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> g(r.mtx);
    std::map<std::string, u64> snap;
    for (const auto &kv : r.counters)
        snap[kv.first] = kv.second->value();
    return snap;
}

std::map<std::string, double>
gaugeSnapshot()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> g(r.mtx);
    std::map<std::string, double> snap;
    for (const auto &kv : r.gauges)
        snap[kv.first] = kv.second->value();
    return snap;
}

std::string
statDescription(const std::string &name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> g(r.mtx);
    auto it = r.descriptions.find(name);
    return it == r.descriptions.end() ? std::string() : it->second;
}

void
resetCounters()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> g(r.mtx);
    for (auto &kv : r.counters)
        kv.second->reset();
}

} // namespace obs
} // namespace splab
