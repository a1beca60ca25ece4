/**
 * @file
 * Committed-table fixtures: a test builds one text row per
 * observation, writes the rows as its actual table to the build
 * tree, and compares them line by line with the committed fixture
 * of the same name. Lines starting with '#' are comments.
 */

#ifndef SIPT_TESTS_FIXTURE_TABLE_HH
#define SIPT_TESTS_FIXTURE_TABLE_HH

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace sipt::testfix
{

/** The rows of the fixture table at @p path: every line but blank
 *  and '#' comment lines. Empty when the file is missing. */
inline std::vector<std::string>
readFixture(const std::filesystem::path &path)
{
    std::ifstream in(path);
    std::vector<std::string> rows;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line[0] != '#')
            rows.push_back(line);
    }
    return rows;
}

/**
 * Write @p rows to @p out_dir/<TestName>.txt under the comment
 * line @p header, then compare them with @p fixture_dir/
 * <TestName>.txt.
 */
inline void
expectMatchesFixture(const std::vector<std::string> &rows,
                     const std::filesystem::path &fixture_dir,
                     const std::filesystem::path &out_dir,
                     const std::string &header)
{
    const std::string name = testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name();
    std::filesystem::create_directories(out_dir);
    const auto out_path = out_dir / (name + ".txt");
    {
        std::ofstream out(out_path);
        out << "# " << header << '\n';
        for (const std::string &r : rows)
            out << r << '\n';
    }

    const auto fixture_path = fixture_dir / (name + ".txt");
    ASSERT_TRUE(std::filesystem::exists(fixture_path))
        << "missing fixture " << fixture_path
        << "; actual table written to " << out_path;
    const std::vector<std::string> expected = readFixture(fixture_path);
    ASSERT_EQ(expected.size(), rows.size())
        << "row count differs; actual table in " << out_path;
    for (std::size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(expected[i], rows[i]) << "actual: " << out_path;
}

} // namespace sipt::testfix

#endif // SIPT_TESTS_FIXTURE_TABLE_HH
