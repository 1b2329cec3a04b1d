#include "manifest.hh"

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "counters.hh"
#include "trace.hh"

namespace splab
{
namespace obs
{

bool
manifestEnabled()
{
    const char *v = std::getenv("SPLAB_MANIFEST");
    if (!v || !*v)
        return true; // default: on
    return !(v[0] == '0' && v[1] == '\0');
}

RunManifest::RunManifest(std::string tool) : toolName(std::move(tool))
{
}

void
RunManifest::setConfig(const std::string &key,
                       const std::string &value)
{
    config.set(key, JsonValue::string(value));
}

void
RunManifest::setConfig(const std::string &key, const char *value)
{
    config.set(key, JsonValue::string(value));
}

void
RunManifest::setConfig(const std::string &key, double value)
{
    config.set(key, JsonValue::number(value));
}

void
RunManifest::setConfig(const std::string &key, u64 value)
{
    config.set(key, JsonValue::number(value));
}

void
RunManifest::setConfig(const std::string &key, u32 value)
{
    config.set(key, JsonValue::number(u64{value}));
}

void
RunManifest::setConfig(const std::string &key, int value)
{
    config.set(key, JsonValue::number(i64{value}));
}

void
RunManifest::setConfig(const std::string &key, bool value)
{
    config.set(key, JsonValue::boolean(value));
}

void
RunManifest::recordEnv(const char *name)
{
    const char *v = std::getenv(name);
    env.set(name, JsonValue::string(v ? v : ""));
}

bool
RunManifest::addOutput(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    std::vector<unsigned char> bytes;
    unsigned char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    std::fclose(f);

    std::size_t slash = path.find_last_of('/');
    std::string base = slash == std::string::npos
                           ? path
                           : path.substr(slash + 1);
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%016llx",
                  static_cast<unsigned long long>(
                      fnv1a64(bytes.data(), bytes.size())));

    JsonValue out = JsonValue::object();
    out.set("file", JsonValue::string(base));
    out.set("bytes", JsonValue::number(u64{bytes.size()}));
    out.set("fnv64", JsonValue::string(hex));
    outputs.push(std::move(out));
    return true;
}

void
RunManifest::addArtifact(const std::string &name, u64 key)
{
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%016llx",
                  static_cast<unsigned long long>(key));
    artifacts.set(name, JsonValue::string(hex));
}

void
RunManifest::setTimingNote(const std::string &key, double value)
{
    timingNotes.set(key, JsonValue::number(value));
}

JsonValue
RunManifest::build(bool includeTiming) const
{
    JsonValue root = JsonValue::object();
    root.set("schema", JsonValue::string("splab-manifest-v1"));
    root.set("tool", JsonValue::string(toolName));
    root.set("config", config);
    root.set("env", env);

    JsonValue counters = JsonValue::object();
    for (const auto &kv : counterSnapshot())
        counters.set(kv.first, JsonValue::number(kv.second));
    root.set("counters", std::move(counters));

    auto stats = spanStats();
    JsonValue stages = JsonValue::array();
    for (const auto &s : stats) {
        JsonValue st = JsonValue::object();
        st.set("path", JsonValue::string(s.path));
        st.set("count", JsonValue::number(s.count));
        stages.push(std::move(st));
    }
    root.set("stages", std::move(stages));
    root.set("artifacts", artifacts);
    root.set("outputs", outputs);

    if (includeTiming) {
        JsonValue timing = JsonValue::object();
        JsonValue gauges = JsonValue::object();
        for (const auto &kv : gaugeSnapshot())
            gauges.set(kv.first, JsonValue::number(kv.second));
        timing.set("gauges", std::move(gauges));
        JsonValue tstages = JsonValue::array();
        for (const auto &s : stats) {
            JsonValue st = JsonValue::object();
            st.set("path", JsonValue::string(s.path));
            st.set("wall_s", JsonValue::number(s.wallSeconds));
            st.set("cpu_s", JsonValue::number(s.cpuSeconds));
            tstages.push(std::move(st));
        }
        timing.set("stages", std::move(tstages));
        for (const auto &kv : timingNotes.members())
            timing.set(kv.first, kv.second);
        root.set("timing", std::move(timing));
    }
    return root;
}

std::string
RunManifest::render() const
{
    return build(true).render();
}

std::string
RunManifest::renderDeterministic() const
{
    return build(false).render();
}

bool
RunManifest::write(const std::string &path) const
{
    std::string text = render();
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    std::size_t n = std::fwrite(text.data(), 1, text.size(), f);
    int rc = std::fclose(f);
    return n == text.size() && rc == 0;
}

} // namespace obs
} // namespace splab
