#include "common/metrics.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace sipt
{

namespace
{

/** Split a validated dotted path into its segments. */
std::vector<std::string>
splitPath(const std::string &path)
{
    std::vector<std::string> segments;
    std::string current;
    for (const char c : path) {
        if (c == '.') {
            if (current.empty())
                panic("metrics: empty segment in path '", path,
                      "'");
            segments.push_back(std::move(current));
            current.clear();
        } else {
            current += c;
        }
    }
    if (current.empty())
        panic("metrics: empty segment in path '", path, "'");
    segments.push_back(std::move(current));
    return segments;
}

struct Leaf
{
    std::vector<std::string> segments;
    Json value;
};

/** Build the nested object for leaves sharing a prefix of length
 *  @p depth, preserving first-seen order of child keys. */
Json
buildTree(const std::vector<const Leaf *> &leaves,
          std::size_t depth)
{
    Json node = Json::object();
    std::vector<std::string> order;
    std::unordered_map<std::string, std::vector<const Leaf *>>
        groups;
    for (const Leaf *leaf : leaves) {
        const std::string &key = leaf->segments[depth];
        auto [it, inserted] = groups.try_emplace(key);
        if (inserted)
            order.push_back(key);
        it->second.push_back(leaf);
    }
    for (const std::string &key : order) {
        const auto &group = groups[key];
        const bool terminal =
            group.front()->segments.size() == depth + 1;
        // Duplicate full paths cannot occur (the index is keyed by
        // path), so >1 leaf plus any terminal means "a" coexists
        // with "a.b".
        if (group.size() > 1 &&
            std::any_of(group.begin(), group.end(),
                        [&](const Leaf *l) {
                            return l->segments.size() == depth + 1;
                        })) {
            panic("metrics: path prefix conflict at '", key,
                  "' (a metric is both a value and a group)");
        }
        node.set(key, terminal ? group.front()->value
                               : buildTree(group, depth + 1));
    }
    return node;
}

} // namespace

MetricsRegistry::Entry &
MetricsRegistry::upsert(const std::string &path)
{
    const auto it = index_.find(path);
    if (it != index_.end())
        return entries_[it->second];
    splitPath(path); // validate
    index_.emplace(path, entries_.size());
    entries_.push_back(Entry{path, true, 0, 0.0});
    return entries_.back();
}

void
MetricsRegistry::setCounter(const std::string &path,
                            std::uint64_t value)
{
    Entry &e = upsert(path);
    e.isCounter = true;
    e.count = value;
}

void
MetricsRegistry::setValue(const std::string &path, double value)
{
    Entry &e = upsert(path);
    e.isCounter = false;
    e.value = value;
}

Json
MetricsRegistry::toJson() const
{
    std::vector<Leaf> leaves;
    leaves.reserve(entries_.size());
    for (const Entry &e : entries_) {
        leaves.push_back(Leaf{splitPath(e.path),
                              e.isCounter ? Json(e.count)
                                          : Json(e.value)});
    }
    std::vector<const Leaf *> roots;
    roots.reserve(leaves.size());
    for (const Leaf &leaf : leaves)
        roots.push_back(&leaf);
    return buildTree(roots, 0);
}

} // namespace sipt
