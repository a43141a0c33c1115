#include "util/arg_parser.hh"

#include <cstdio>
#include <cstdlib>

#include "sim/logging.hh"
#include "util/strings.hh"

namespace wlcache {
namespace util {

ArgParser::ArgParser(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary))
{
}

ArgParser &
ArgParser::option(const std::string &name,
                  const std::string &default_value,
                  const std::string &help)
{
    wlc_assert(find(name) == nullptr, "duplicate option --%s",
               name.c_str());
    options_.push_back({ name, default_value, help, false });
    return *this;
}

ArgParser &
ArgParser::flag(const std::string &name, const std::string &help)
{
    wlc_assert(find(name) == nullptr, "duplicate flag --%s",
               name.c_str());
    options_.push_back({ name, "0", help, true });
    return *this;
}

ArgParser &
ArgParser::listOption(const std::string &name, const std::string &help)
{
    wlc_assert(find(name) == nullptr, "duplicate option --%s",
               name.c_str());
    Option opt{ name, "", help, false };
    opt.is_list = true;
    options_.push_back(std::move(opt));
    return *this;
}

ArgParser::Option *
ArgParser::find(const std::string &name)
{
    for (auto &o : options_)
        if (o.name == name)
            return &o;
    return nullptr;
}

const ArgParser::Option *
ArgParser::find(const std::string &name) const
{
    return const_cast<ArgParser *>(this)->find(name);
}

bool
ArgParser::parse(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(usage().c_str(), stdout);
            help_requested_ = true;
            return false;
        }
        if (!startsWith(arg, "--")) {
            positional_.push_back(arg);
            continue;
        }
        arg = arg.substr(2);
        std::string value;
        bool has_value = false;
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
            has_value = true;
        }
        Option *opt = find(arg);
        if (!opt) {
            std::fprintf(stderr, "%s: unknown option --%s\n%s",
                         program_.c_str(), arg.c_str(),
                         usage().c_str());
            return false;
        }
        if (opt->is_flag) {
            if (has_value) {
                std::fprintf(stderr,
                             "%s: flag --%s takes no value\n",
                             program_.c_str(), arg.c_str());
                return false;
            }
            opt->value = "1";
            continue;
        }
        if (!has_value) {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "%s: option --%s needs a value\n",
                             program_.c_str(), arg.c_str());
                return false;
            }
            value = argv[++i];
        }
        if (opt->is_list) {
            for (const auto &item : split(value, ','))
                if (!item.empty())
                    opt->values.push_back(item);
        } else {
            opt->value = value;
        }
    }
    return true;
}

std::string
ArgParser::get(const std::string &name) const
{
    const Option *opt = find(name);
    if (!opt)
        fatal("unknown option '%s'", name.c_str());
    return opt->value;
}

long
ArgParser::getInt(const std::string &name) const
{
    return std::strtol(get(name).c_str(), nullptr, 0);
}

double
ArgParser::getDouble(const std::string &name) const
{
    return std::strtod(get(name).c_str(), nullptr);
}

bool
ArgParser::getFlag(const std::string &name) const
{
    return get(name) == "1";
}

const std::vector<std::string> &
ArgParser::getList(const std::string &name) const
{
    const Option *opt = find(name);
    if (!opt)
        fatal("unknown option '%s'", name.c_str());
    if (!opt->is_list)
        fatal("option '%s' is not a list option", name.c_str());
    return opt->values;
}

std::string
ArgParser::usage() const
{
    std::string out = program_ + " - " + summary_ + "\n\noptions:\n";
    for (const auto &o : options_) {
        std::string left = "  --" + o.name;
        if (!o.is_flag)
            left += " <v>";
        out += padRight(left, 28) + o.help;
        if (o.is_list)
            out += " (repeatable)";
        else if (!o.is_flag && !o.value.empty())
            out += " (default: " + o.value + ")";
        out += "\n";
    }
    return out;
}

} // namespace util
} // namespace wlcache
